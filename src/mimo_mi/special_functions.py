"""The scaled exponential integral e^t Ei(-t) of the closed form, and
the check on its argument t that the oracles share.

e^t E1(t) = -e^t Ei(-t) is computed on Python integers, to a proven
relative error, by one of two branches:

- small t: the series e^t E1(t) = sum_{k>=1} H_k t^k / k! - (gamma + ln t) e^t
  (H_k the harmonic numbers), whose terms are all positive, in fixed
  point.  ln t takes ln 2, a table of ln(1 + j/32) and a short atanh
  series; e^t is the sum of the same terms t^k / k!.
- large t: the S-fraction
  e^t E1(t) = 1/(t + 1/(1 + 1/(t + 2/(1 + 2/(t + 3/(1 + ...)))))),
  (Cuyt et al., "Handbook of Continued Fractions for Special Functions",
  2008, ch. 14), whose successive convergents bracket the value, so it
  stops once two of them agree.

Euler's gamma, ln 2 and the table are integer literals below, so that
importing this module computes nothing.

All functions here are pure and share no state, so everything is safe
to call concurrently.
"""

from __future__ import annotations

import math


# Fractional bits of the constants below.
_CONST_BITS = 1024
# Most bits the series branch may work at: the constants' rounding error,
# times |ln t / ln 2| <= 1075, stays below one unit there.
_MAX_SERIES_BITS = _CONST_BITS - 11
# Bits the series branch keeps beyond prec + t log2(e): its error bound
# is below 2^21.6 e^t units (see _e1_series), and t + 1 < 2^8.
_SERIES_GUARD_BITS = 31
_LOG2_E = 1.4426950408889634
# Most continued-fraction steps a call may take, by the estimate in
# _scaled_e1: about 0.3 s at 1000 bits.  No closed-form point of any
# table that builds needs more than about 460.
_MAX_CF_STEPS = 4096
# Bits of e^t E1(t) tried in turn for the correctly rounded float.
_FLOAT_BITS = (64, 128, 256, 512)

# round(c 2^1024) for Euler's gamma, ln 2 and ln(1 + j/32), j = 0..31.
_EULER_GAMMA = 0x93c467e37db0c7a4d1be3f810152cb56a1cecc3af65cc0190c03df34709affbd8e4b59fa03a9f0eed0649ccb621057d11056ae9132135a08e43b4673d74bafea58deb878cc86d733dbe7bf38154b36cf8a96d1567899aaae0c09d4c8b6b7b86fd2a1ea1de62ff8643ec7c271827977225e6ac2f0bd61c746961542a3ce3bea5e
_LN2 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2be7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b8253e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c6
_LN_1P_J32 = (
    0,
    0x7e0a6c39e0cc0133e3f04f1ef229faeaefae14cddf35ad1df6c758fe3673dcd8a38a3ffec979e9d55d9a7bae0a5d2e39ce344310f6e3a3902127ef47cb29271ff7bd74c38eed29cf6cf97038d212c6bc6ee8bcfc1bb60f648625f868fd1d5f65faea913532b6b9b750b08638bd310a693e18189403dd5821cc99aa5ea801ae9,
    0xf85186008b15330be64b8b775997898d3474d3375b5259671851f0a96f698496172da6bde861006908722d985badcca99f0cc1de7a9459e9bc3578977e6bc1668fdf95d5f36b22ce0f5584423c4de58cce585dd73d21d72d2692bbceee9d3588f93e053980ce36e3c5c1d2c99f1c7fc0fea5d7bb857a365f85fcf25a5d9c7d8,
    0x16f0d28ae56b4b9be499b9ed19b640ce50c1ef65087fdf23812f38a034b59afd284ac3feba4a6521c1e6a872644009edfa8c6dd6dc5afe2aa047161ceed4c84373e8df8ae93c9c743a47054da17603171c16f09b034843cf88712110167437659f1a2e7a6f047d68bd843a807e0904a2e86d9ee2844b4bc77c5f7fe524c08162,
    0x1e27076e2af2e5e9ea87ffe1fe9e155db94ebc4017f6f957dd0897c1ff917c959e05a342cfca2ad7a023f5742646cc77fd2c1f6cf9a71577286a0066ec0c645951dccb81d608e6fb3f5b4ef064ae411a10568afc5d60e11ce2b3fa400574e2e748c4ea741bb0f03ae91a8c6548b72758b8b911907abe8667050013c149f361f4,
    0x252aa5f03fea46980bb8e203edf4d109fbc9070f7e29fbad3603f226de50d341bdef2e4cc81786ffe399a8f636cd30256d706ec47a3b264f47b9f129c430292d4d8af0d60d56204ab3125ba23751e986d86130b22710c2561c9f39649b4ebcd30f7ce81d51ceb7315c613b654636d8cd9b69f7993e3419e6b643e97d2dd22765,
    0x2bfe60e14f27a790e7c4140e424775fcd55c7355fdf3e631c0acfed6d928291dedbafdfd023311f997d44cc5b541268f4baeb699b88a7375ad7848e7fb5d87b55429f714254cd4853305691dc711da9f854246d3aa0ac9ad17dc4f5a7aa0ed67159a0fd6ccfef3b78e3c319f5484a0aad42ac3523017511be53f634d6fcb8912,
    0x32a4b539e8ad68ec8260ea71712cec4ca0bed3cf7176694713daa19ed7f0a39d9ba61844978b7d19421b1cf777b2012345a5f1bad837522117b14e8646577c9538a0bcdcdad45f30190de9f6f95327dd2bc23c2669c853a0362f741fbe6355605dae3ddde439aca7290cda1e3ff9a5ea6191fb6fe2d1147f3f83a6550cd1d47f,
    0x391fef8f353443584bb03de5ff734495c765ea7411adc1b170f133f564bfc746a192a8fd7cdd3baa3103360ed08de46de9fc85bfc087279f78383094d75732ea24ef8447c3518a2a89070cdb2eec1e738fdb6776172bfb37d5380a61e55f390cd1333657b55167b558ade5fd6951da643c03dcc9ca54dd548bf1ceeb1e5824b5,
    0x3f7230dabc7c551aaa8cd86f29a5941240584455b22c817b165f74d56916ddaae9c83e0f6589e221c716725509140995c58402fb435a44c663a59c53eb00ad039c2c4256987d6ab45ef28befa597a52024b9a3b1f66faf7f91858558e3f9c129de70e498c355fa6028d3211a3e4dd58848396d97de27245da8c37f5359392d8e,
    0x459d72aeae98380e731f55c41b8b823f067d04a43c19f534c3c8dc3995940f17499727b2dc48152f8bc0169b4c52994485bd4ee8794371e8cfef83501638a3989733260f2214fa29de538cf33d9f216ff15c1c84f367e943b74ae4446efb6b722bb0b135963e323654536e14552ad70f3b761ba48ee62377e00486bd3301f889,
    0x4ba38aeb8474c270b3246a14206cf37b77ad6fb226f152134cf267553164478ef5fc616e20cd59363f7d530e8d291024519f62aaff797e1553c8ac43a3830fa549361936cac6b8b41f85c6f17ebe01ee16ca0ea30e1e896f8d7338b0e7ca878efc108b85ec9786d357858cfc8eb79992a70524cffac38038bf14040556548f5a,
    0x51862f08717b09f42decdeccf1cd105772cd24c00b44393cb5eeb55ca973fc98af120d6ebba85f7db092567e72ff7a3014e48b957336c01f81891c558f613c57f5d8d6965f0fd381e487dc93f388281e1bb894336ba6208569c032dcc843602874b377b2140597e37b6d958f838f961e6a34c9849a6f042007605ca7cd2654d2,
    0x5746f6fd6027294236383dc7fe1159f380b4a6b429a4bb094df9cbb7645143dc3f984c404ca76681d1272b82f6d4b0e5e728a52cba2e3d16a0a230fbc363974376cc4fc9995a7125c8625bcb939a5f8da031f272748cdc54b7ec04a1ead41bf419f820cbd10257f041c87262b20901bcf4bcee5a451363bb90f1e2ac684b86a9,
    0x5ce75fdaef401a7389314feb4fbde5aadde10dcea59757bbbc92784d23446f02505d2dc14ac65d2ac49b7c7b9e14a268e0427ff797f257691f632a2fb13515889552cddfef653efac209c254a6b90d5b7b577405021f561ebfe6ef8663a1e7af1220a8b519f672e956f033d7c55f14efc3bdc1c3c3aa011b354994b11d51abb0,
    0x6268ce1b05096ad69c620440f055b3ffc63281b40515a31f501f739cc6f538312fbbd96820267cbf29843ae0f0427892778b0d3873edae34507eaaddd94be1bd710925df6625701433da365a67672a39189c6b4b285e0cb4a121e9bb122a2c73d5a40aeea9f65bf85a7d27e6d4d6509577fc94eec48fd2df517142b539be50ac,
    0x67cc8fb2fe612fcada35d9bd014886067d20ffb34547d7c2b38ad78ec59e3b60c2df0cb19edaebb7fadca437b8a073c4752d66d15d6f9b5da7e09dc7febb0e3f4839cacbfc29e7e02d139480cb153ccc65209360074ba0ac0411cd963de66d195dc9b912dc8b1c82ef7d19914073acd08f0c598bd4efb504ef96d5c32c999bdd,
    0x6d13ddef323d8a32fbb6aba63878ef2053ab4d08603cf111aa8920b12b96a198f528ac22e8c5ff87775c37c2725e66110e4e7e63f8dfce5a777506394064e2d7dc89809c6e210d587d4bcaf6169001c5d261ae0d896ef16a8be1ce48d881f3fd0e9c77f710cb7431bf8c4fc3619e86c5be3325b8a30dc088bb08f9b91c108f1f,
    0x723fdf1e6a6886b097607bcbfee6892b8ecbd4e8235b8362e1e267eac97f8e8d432551faf9ba775462066c1da11bc8dbd3f90b7f810e4f3ef0706129aeae65d449df088f86a31455120e19b65dd83ce71fb6ceec2e57f66faa7014c3cabe7219a2666caf6aa2cf6ab15bcbfad2a3b4c87807b99394a9baa917e39dd63cb0496b,
    0x7751a813071282fb989a927476e1fe9f50684ce6bafcfd59250ff6995c94d3aa2451e71d7d60fbbe8b63c7113e5b508f0f1e32ef4518e0fc43a3f55176a1ca55b137c4295b609a0d0e08ecc4eeda1b253206193d7b1dbe1ed67af9532cd04071ed5d99667497fff12bd936bdda6574cc9ef6b7078d47586ae7f6a4e8d27363b5,
    0x7c4a3d7ebc1bb2cd720ec44c73d75cf5649117429ec747b1ea5ce16b9dfd6268c07f81b3669c3df99cd3cbbb0a0ba86fbda7391f3bffd8079727ebe75906267b2efdbc2700f5601506c62f875fba238f808c448a13b3132f578d4775f6d4df9272b30c7ca513d8ef2f6f674a37b62b6237e5436b3d02431d2a1a6856ef780e68,
    0x812a952d2e87f634e34aebf73ffe346e4b8b8c4c34ebb89ea25591cfd7258b510ba664483605037fe2af09cf0c759abe3a732eb6e89d878e9406276067a4698792d8387e3aa6edbdfc5ba321d12e60aadba873150e899c5e421c64ba527c1c8833b034fa228b9a7c981369985c191bef54dca374c70e161da35b87ed832c532a,
    0x85f39721295415b4c4bdd99effe69b64366fbbf35d3ed11a90936f50c52fb7f660e4aff46ea5168f9b0099abdee7403c7259863e5716b0d4d04a9e2eeac772989a16964dd232cedb6c6ee3712fc37de675771e5c64ac81c8e6c5c7d6435b5000a68ea386f83c0cbdd897a5f6892ad42947c56b1c4fae3b6bf496e984768cfdd1,
    0x8aa61e97a6af4d4c799d1cb2f14054ed3a330f341cf1faee26dfe9520e33c3df50a4b66c38859b27e1958c8d438d5e9dfee1115533bde7bef9c14cea66b86f421ac85ade22615dac6d8ee96f22744691ab93fba982d21bbd3ef83d3eada2993545e6ae09c956ff98d41b7b8cece17082a638a64e64c3e17493522b92eb7e7987,
    0x8f42faf3820681ef62cd2f9f1e35f2e7ca4f4817696ad39f9a4b1c065ba0cde26e709121ab58d60fe678c55edeac4090fdbe964cdd0bf7cf4f6620b128e74d7e8d9025594835fb0ecc0bd283a4061d22462624e89d52a8d2d8a8b79aa76cf5a440b57fd457185e7e5ab5fb404ce75c8711c9639fe9175215ca9b48bf15a83272,
    0x93caf0944d88d75bc1f9edcb438ffc03527d7309433bbdf47437d6659ec6647eb09a0aaea10dfdb192b0f0fd6de19a53c0dc1d6b15fa0ed35558e6affa1895f49c63c1e02176bc656018fd9e9227176bea62da33b1566a591bee1cf0b8875a807363c8e9a98a103a7db94b3094f84d7b63371cde05070620d4d639109c6524ef,
    0x983eb99a7885f0fdac850fab36cdee180b7013338119ba914042089c636df445d3bc93b7e748ff9a879fae51527402654556832dceab26fadb24c6951304d6c17223dd0819bef85087c74d89320f43feaebd159ca32d0db2325a17285bd23e2b852ee7a9312485097dbc019e1c925d4291bed8e6c7564f4899aaeec1548f8846,
    0x9c9f069ab150cd4e221301b6f8c38f621717c9e70041326041e7a8452170e2c2bc176f0ab57fe9dba87f09fa3dc6a3862df8d83061955f50829512bd48fe025005ee137dfc56c33232ff3f4a8f098f8609df0a3df8f275d801d333f2d534ac6a452ad576c685ef55b11bed46a43b2af7cfaeac718be97053d8645c21a7d79f40,
    0xa0ec7f423395732325e617a300bbca9c4486ea2756f59974247c0b842a5e02a76471b5af1bb827622bdfda46892e58325f29ec911df6c2fd2018ce5cd61241296d294f13bf7b720ab61aa15bfa015b3ff4fbfad61e779be3d949d7f82345a6262efcef6a91dc8438482aff8ea9c58734cb1036559f4492597b88a4ae4af1c092,
    0xa527c2ed81f5d8113dfa3d3761b6316e6f7191d8af47e7445bf1a66c84ebc20623bd3235db555408322aec8e445c1b43d83cab84a883d1a75c9fdf23369cb4111899e517aa76f580e3d6b5db4a98f47d77281ec098d9763a0c6478746361cdc02de04fdb6bb532fe56ed27e85f94fef647c646fb2f448d136dba9a874ae4ca08,
    0xa9516932de2d5773be4578ad97aea7bed0920f6a4c39b31ea388b63329d4eb53ca138ee03e381ca3031e3061eceb1f55bbe00b2bd6775e9f8a7e5bd3c1df5ebfe15b4f4352e00e87027aab159757fd4eef59d2cc6295523f1688b24fe5087839a98889ef48ea60b9a85772613638b66596870e23f57051991b7f6cb75da25d23,
    0xad6a0261acf967d94d552f811cd40845839e04578161ccf77753b3c85b324a780c7634647b2300e7869cbad304f30d08faeab5b9d6b30d4677d0211814f3b1d7df6cf0db1e3ee20a0b67217408b45e3c567cafe4fab389efbb5cb1daace1d88b897a6a4872c94eb943d087a5959e83dfca82753063d5d87ccf9b5c805f9b9466,
)


def _check_t(t: float) -> float:
    """t as a float; ValueError unless that is a finite inverse SNR t > 0,
    TypeError unless t is a real number."""
    x = float(t) if math.isfinite(t) else t  # isfinite takes no str
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"need finite t > 0, got t={x}")
    return x


def _e1_series(p: int, e: int, work: int) -> int:
    """e^t E1(t) 2^work, to within 2^21.6 e^t units, for t = p / 2^e
    below 256 and work <= _MAX_SERIES_BITS.

    Every floor below errs by under one unit of 2^-work, and an error in
    u_k carries into the later terms scaled by at most t^i / i!.  So e^t
    is short by at most e^t (2K + 1) units, K the number of terms, each
    tail T_i by as much, S = sum_i T_i / i by (H_K + 2) times that plus
    K, and gamma + ln t, of size at most 745, errs by at most
    0.23 work + 9 units.  The result therefore errs by at most
    e^t ((2K + 1)(H_K + 747) + K + 245) units, which is below
    2^21.6 e^t as K < 2^11 for t < 256.
    """
    one = 1 << work
    # ln t = (top - e) ln 2 + ln(1 + j/32) + 2 atanh(z), where
    # x = p 2^-top is in [1, 2), j = floor(32 (x - 1)) and
    # z = (x - y) / (x + y) with y = 1 + j/32, so 0 <= z < 1/65: each
    # atanh term adds 12 bits
    top = p.bit_length() - 1
    j = (p << 5 >> top) - 32
    x, y = p << 5, (32 + j) << top
    z = ((x - y) << work) // (x + y)
    z2 = z * z >> work
    term = atanh = z
    k = 3
    while term:
        term = term * z2 >> work
        atanh += term // k
        k += 2
    constants = _EULER_GAMMA + (top - e) * _LN2 + _LN_1P_J32[j]
    gamma_ln_t = (constants >> (_CONST_BITS - work)) + 2 * atanh
    # u_k = t^k / k! until it rounds to 0
    terms = []
    u, k = one, 1
    while u:
        terms.append(u)
        u = (u * p >> e) // k
        k += 1
    # S = sum_k H_k u_k = sum_i T_i / i over the tails
    # T_i = sum_{k >= i} u_k, and T_0 = e^t
    tail = s = 0
    for i in range(len(terms) - 1, 0, -1):
        tail += terms[i]
        s += tail // i
    return s - (gamma_ln_t * (tail + one) >> work)


def _e1_cf(p: int, e: int, bits: int) -> tuple[int, int]:
    """(man, exp) with man 2^exp within 3 2^-bits of e^t E1(t), relative,
    for t = p / 2^e.

    With every partial numerator scaled by 2^e the S-fraction reads, in
    integers, 2^e/(p + 2^e/(1 + 2^e/(p + 2 2^e/(1 + 2 2^e/(p + ...))))).
    Its convergents P_i / Q_i alternate about the value, and
    P_i Q_(i-1) - P_(i-1) Q_i = +-2^(e i) (j!)^2 for i = 2j + 1, so the
    loop stops once that is at most 2^-bits P_i Q_(i-1).
    """
    # convergents 2j and 2j + 1, from j = 0
    p0, q0, p1, q1 = 0, 1, 1 << e, p
    fact2 = 1  # (j!)^2
    j = 0
    while True:
        j += 1
        fact2 *= j * j
        p0, q0 = p1 + (j * p0 << e), q1 + (j * q0 << e)
        p1, q1 = p * p0 + (j * p1 << e), p * q0 + (j * q1 << e)
        det_bits = e * (2 * j + 1) + fact2.bit_length()
        if det_bits + bits + 2 <= p1.bit_length() + q0.bit_length():
            shift = bits + q1.bit_length() - p1.bit_length()
            return (p1 << shift) // q1, -shift


def _scaled_e1(t: float, prec: int) -> tuple[int, int]:
    """(man, exp) with man 2^exp within 2^-prec of e^t E1(t), relative."""
    # fewer bits save hardly any work, and the crossover below was measured
    # from 53 bits up
    prec = max(prec, 53)
    p, q = t.as_integer_ratio()
    e = q.bit_length() - 1
    # the series is faster below the measured crossover t = prec/5 - 3
    if 5.0 * (t + 3.0) < prec:
        # e^t E1(t) is about 1/t while the series' terms sum to about
        # e^t ln t: their cancellation takes t log2(e) bits
        work = prec + _SERIES_GUARD_BITS + math.ceil(t * _LOG2_E)
        if work <= _MAX_SERIES_BITS:
            return _e1_series(p, e, work), -work
    # the fraction needs about (bits ln 2)^2 / (16 t) steps here
    if 0.031 * (prec + 2) ** 2 > _MAX_CF_STEPS * t:
        raise ValueError(
            f"e^t Ei(-t) at t={t} to {prec} bits is beyond this implementation: "
            f"the series needs more than {_MAX_SERIES_BITS} bits and the "
            f"continued fraction more than {_MAX_CF_STEPS} steps"
        )
    return _e1_cf(p, e, prec + 2)


def ei_exp_scaled(t: float, prec: int | None = None):
    """e^t Ei(-t) = -e^t E1(t) for t > 0, rounded once to a float.

    With `prec`, returns instead the integers (man, exp) with
    e^t E1(t) = man 2^exp to a relative error below 2^-prec, for callers
    that combine it exactly with other terms; e^t Ei(-t) = -man 2^exp.
    A (t, prec) that would take more than _MAX_SERIES_BITS bits in the
    series and more than _MAX_CF_STEPS steps of the continued fraction
    is a ValueError; the closed form never asks for one.

    The float is correctly rounded: it is taken from (man, exp) at 64
    bits, and at twice as many whenever their error bound straddles a
    rounding boundary.  Positive arguments of Ei are deliberately
    unsupported; nothing in this package needs them.
    """
    t = _check_t(t)
    if prec is not None:
        return _scaled_e1(t, prec)
    for bits in _FLOAT_BITS:
        man, exp = _scaled_e1(t, bits)
        # |man - e^t E1(t) 2^-exp| < man 2^(1 - bits); exp < 0 always, and
        # int / int true division rounds once
        err = (man >> (bits - 1)) + 1
        low, high = (man - err) / (1 << -exp), (man + err) / (1 << -exp)
        if low == high:
            break
    return -high
