"""Seeded test-instance generation with a portable, documented RNG.

Randomness comes from SplitMix64, a counter-based 64-bit generator small
enough to restate exactly (constants below), so any implementation in
any language can reproduce the same matrices bit for bit:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output z XOR (z >> 31)

Uniforms map the top 53 bits into (0, 1]; normal pairs come from the
Box-Muller transform. A Hermitian draw fills G row-major with entries
(a + ib)/1, a and b standard normal in that order, and symmetrizes to
(G + G*)/2.

Normals are drawn in blocks. After i outputs the state is
seed + i * GOLDEN (mod 2^64), so the normals of S seeds form one uint64 and
float64 array pass, with the operations of the scalar recurrence in its
order: every value has the bits of a one-at-a-time draw. next_u64 and
uniform restate the recurrence for one output. generate_instance takes a
sequence of seeds and draws them as one stack, one seed being a stack of
one. Its normalising p-norms are a Python-float pow per instance,
float(sum |lambda|^p) ** (1/p); the array power differs from that in the
last bit, and would change the instances.
"""

import numpy as np

from .errors import ValidationError
from .spectral import _hermitian_members
from .util import adjoint, lp_norms

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1

PROFILES = ("generic", "singular", "clustered")
CLUSTER_GAP = 1e-7
SINGULAR_COUPLING = 1.0
SINGULAR_BACKGROUND = 0.15


def _normal_block(states, pairs):
    """The next 2 * pairs normals of each of S generators, in draw order.

    states is a uint64 array (S,) of counters of generators with no spare
    pending. SplitMix64 is counter based: its i-th next output mixes
    state + i * GOLDEN (mod 2^64), so the whole (S, 2 * pairs) block is one
    array pass. Each Box-Muller pair is the (cos, sin) member of one pair
    of uniforms, computed with the operations and grouping of the scalar
    recurrence, so every value keeps its bits.
    """
    steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    z = states[:, None] + steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    out = np.empty(u.shape)
    out[:, 0::2] = r * np.cos(angle)
    out[:, 1::2] = r * np.sin(angle)
    return out


def _hermitian(normals):
    """(G + G*)/2 with G = a + ib from pairs (..., dim, dim, 2) of normals."""
    g = normals[..., 0] + 1j * normals[..., 1]
    return (g + adjoint(g)) / 2.0


class SplitMix64:
    """The documented counter-based generator; see the module docstring."""

    def __init__(self, seed):
        self.state = int(seed) & MASK64
        self._spare = None

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform on (0, 1]: top 53 bits, shifted off zero."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normals(self, n):
        """The next n normals: a pending spare first, then fresh pairs; the
        second member of an odd last pair is kept as the spare."""
        n = int(n)
        head = []
        if n and self._spare is not None:
            head, self._spare = [self._spare], None
        pairs = (n - len(head) + 1) // 2
        block = _normal_block(np.array([self.state], dtype=np.uint64), pairs)[0]
        self.state = (self.state + 2 * pairs * GOLDEN) & MASK64
        if len(head) + block.size > n:
            self._spare = block[-1]
        return np.concatenate([head, block[: n - len(head)]])

    def normal(self):
        return self.normals(1)[0]


def generate_instance(seed, dim, profile="generic", p=2.0):
    """Deterministic (H, V) pair for one seed, or the list of pairs for a
    sequence of seeds.

    H is Hermitian with ||H||_p = 1 (so its spectrum sits in [-1, 1]);
    V is Hermitian with ||V||_inf = 1. Profiles:

    - "generic": plain normalized draws.
    - "singular": the last row and column of H are exactly zero, making
      e_{d-1} an exact null vector; V is a unit diagonal coupling into
      that direction plus a damped random background, so the null
      eigenvalue moves at order t and the kink of |x|^p dominates the
      Taylor remainder across the whole default t grid.
    - "clustered": eigenvalue pairs are pinched to distance 1e-7
      (indices 0-1, and 2-3 when the dimension allows) with the norm
      held at 0.99, stressing confluent divided differences.

    A sequence of seeds is drawn as one stack, and each pair has the bits
    of its own single-seed call.
    """
    dim = int(dim)
    if dim < 2:
        raise ValidationError(f"instance dimension must be >= 2, got {dim}")
    if profile not in PROFILES:
        raise ValidationError(f"unknown profile {profile!r}; choose from {PROFILES}")
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"instance normalization needs p >= 1, got {p}")

    single = np.ndim(seed) == 0
    seeds = [seed] if single else seed
    states = np.array([int(s) & MASK64 for s in seeds], dtype=np.uint64)
    # Each seed's stream gives H its first dim^2 normal pairs, V the next.
    normals = _normal_block(states, 2 * dim * dim).reshape(-1, 2, dim, dim, 2)
    h, v = _hermitian(normals).swapaxes(0, 1)

    if profile == "generic":
        h = h / lp_norms(np.linalg.eigvalsh(h), p)[:, None, None]
    elif profile == "singular":
        h[:, dim - 1, :] = 0.0
        h[:, :, dim - 1] = 0.0
        h = h / lp_norms(np.linalg.eigvalsh(h), p)[:, None, None]
        v = v * (SINGULAR_BACKGROUND / np.linalg.norm(v, ord=2, axis=(-2, -1)))[:, None, None]
        v[:, dim - 1, dim - 1] += SINGULAR_COUPLING
    else:  # clustered
        w, u = np.linalg.eigh(h)

        def pinch(vals):
            vals[:, 1] = vals[:, 0] + CLUSTER_GAP
            if dim >= 4:
                vals[:, 3] = vals[:, 2] + CLUSTER_GAP
            return vals

        # pinch, rescale to norm 0.99, and re-pin the gaps; the second
        # pinch moves the norm by at most a gap's width, keeping it < 1
        w = pinch(w)
        w = pinch(w * (0.99 / lp_norms(w, p))[:, None])
        h = (u * w[:, None, :]) @ adjoint(u)

    v = v / np.linalg.norm(v, ord=2, axis=(-2, -1))[:, None, None]
    out = list(zip(_hermitian_members(h), _hermitian_members(v)))
    return out[0] if single else out
