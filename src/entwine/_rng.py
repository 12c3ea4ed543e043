"""numpy's ``default_rng(seed).integers(low, high, size)`` stream in pure Python:
SeedSequence -> PCG64 (XSL-RR output, handed out as buffered 32-bit halves, low
half first) -> Lemire's bounded integers, one half per draw below 2^32.  Sampled
checks keep numpy's stream, seed for seed, without importing numpy.random."""

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h, mult):  # SeedSequence's hashmix; its constant h advances by mult per call
    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * mult & M32
        v = v * h & M32
        return v ^ v >> 16
    return hashmix


class Generator:
    """The draws of numpy.random.default_rng(seed) that entwine makes."""

    def __init__(self, seed: int):
        # SeedSequence(seed).generate_state(4, uint64) is PCG64's 128-bit seed and increment
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for k in range(max(len(entropy), 4)):  # each pool word, then each entropy word past the pool
            for dst in (d for d in range(4) if d != k):
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[k] if k < 4 else entropy[k])) & M32
                pool[dst] = r ^ r >> 16
        out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
        w = [out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6)]
        self._inc = (w[2] << 64 | w[3]) << 1 & M128 | 1
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _MULT + self._inc) & M128
        self._half = None

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            s = self._state = (self._state * _MULT + self._inc) & M128
            word, rot = (s >> 64 ^ s) & M64, s >> 122
            word = (word >> rot | word << (64 - rot)) & M64
            half, self._half = word & M32, word >> 32
        return half

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integers in [low, high): one int, or a list of size of them."""
        span = high - low
        if not 0 < span <= M32:
            raise ValueError(f"range [{low}, {high}) is empty or spans 2^32 or more")
        threshold, draws = (1 << 32) % span, []  # Lemire: reject the low 2^32 mod span
        for _ in range(1 if size is None else size):
            m = self._next32() * span if span > 1 else 0  # numpy draws nothing for one value
            while m & M32 < threshold:
                m = self._next32() * span
            draws.append(low + (m >> 32))
        return draws[0] if size is None else draws
