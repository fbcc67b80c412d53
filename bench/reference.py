"""Fixed reference work used to read the machine's current speed.

    python3 -I bench/reference.py

The shared 2-vCPU machine (Intel Xeon, 2.1 GHz) this benchmark was
tuned on switches between speed regimes that differ by up to 1.9x for
tens of seconds at a time, for identical work, and the slowdown shows
as CPU time, not as waiting.  The benchmark
therefore runs this file as its own child process around every sample
and scales each measured time by REF_SECONDS / (this file's time at that
moment).  The work mixes the three kinds of Python work `subsum` does:
bignum packing and unpacking, a large integer product, and small-int
modular loops.

Never change the work done here: every recorded result is in units of
it.  A change to it is a change of the benchmark and needs a new
baseline.
"""

# Wall time of this file's work, including interpreter start, on one
# uncontended core of the machine the benchmark was tuned on.
REF_SECONDS = 0.11


def pack(coeffs, bits):
    total = 0
    for k, c in enumerate(coeffs):
        total += c << (bits * k)
    return total


def unpack(packed, bits, count):
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    for _ in range(count):
        d = packed & mask
        if d >= half:
            d -= 1 << bits
        out.append(d)
        packed = (packed - d) >> bits
    return out


def reduce_mod(coeffs, modulus, p):
    r = [c % p for c in coeffs]
    df = len(modulus) - 1
    for k in range(len(r) - 1, df - 1, -1):
        c = r[k]
        if c:
            for j in range(df + 1):
                r[k - df + j] = (r[k - df + j] - c * modulus[j]) % p
    return r[:df]


def work() -> None:
    a = tuple(((i * 7919) % 1000003) << (i % 97) for i in range(300))
    b = a[::-1]
    for _ in range(4):
        unpack(pack(a, 420) * pack(b, 420), 420, len(a) + len(b) - 1)
    modulus = [1] + [(j * 31) % 13 for j in range(1, 60)] + [1]
    for p in (7, 13):
        reduce_mod(list(range(2500)), modulus, p)


if __name__ == "__main__":
    work()
