"""Tests for the portable seeded instance generator."""

import hashlib

import numpy as np
import pytest

from specforms.errors import ValidationError
from specforms.instances import (
    CLUSTER_GAP,
    GOLDEN,
    MASK64,
    MIX1,
    MIX2,
    PROFILES,
    SplitMix64,
    _draw,
    generate_instance,
)
from specforms.util import lp_norms


def test_splitmix_first_outputs_are_pinned():
    # Frozen first outputs of the documented recurrence for seed 0; these
    # protect the cross-implementation contract, not just self-consistency.
    rng = SplitMix64(0)
    got = [rng.next_u64() for _ in range(3)]
    assert got == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_uniform_range_and_determinism():
    rng = SplitMix64(123)
    draws = [rng.uniform() for _ in range(1000)]
    assert all(0.0 < u <= 1.0 for u in draws)
    again = SplitMix64(123)
    assert draws == [again.uniform() for _ in range(1000)]


def test_splitmix_normals_moments():
    rng = SplitMix64(2024)
    xs = rng.normals(20000)
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_instances_are_bit_for_bit_reproducible():
    for profile in PROFILES:
        h1, v1 = generate_instance(42, 5, profile=profile, p=2.5)
        h2, v2 = generate_instance(42, 5, profile=profile, p=2.5)
        assert np.array_equal(h1.matrix, h2.matrix)
        assert np.array_equal(v1.matrix, v2.matrix)


def test_instances_differ_across_seeds():
    h1, _ = generate_instance(1, 4)
    h2, _ = generate_instance(2, 4)
    assert not np.array_equal(h1.matrix, h2.matrix)


def test_normalizations():
    for profile in PROFILES:
        for p in (1.5, 2.5, 3.5):
            h, v = generate_instance(7, 4, profile=profile, p=p)
            lam = np.linalg.eigvalsh(h.matrix)
            norm = np.sum(np.abs(lam) ** p) ** (1.0 / p)
            if profile == "clustered":
                np.testing.assert_allclose(norm, 0.99, atol=1e-6)
            else:
                np.testing.assert_allclose(norm, 1.0, rtol=1e-10)
            np.testing.assert_allclose(
                np.linalg.norm(v.matrix, ord=2), 1.0, rtol=1e-12
            )


def test_singular_profile_structure():
    h, v = generate_instance(11, 5, profile="singular", p=2.5)
    # last row/column exactly zero: e_{d-1} is an exact null vector
    assert np.all(h.matrix[4, :] == 0.0)
    assert np.all(h.matrix[:, 4] == 0.0)
    assert np.min(np.abs(np.linalg.eigvalsh(h.matrix))) == 0.0
    # the direction couples strongly into the null vector
    assert abs(v.matrix[4, 4]) > 0.5


def test_clustered_profile_gaps():
    h, _ = generate_instance(13, 5, profile="clustered", p=2.5)
    lam = np.linalg.eigvalsh(h.matrix)
    gaps = np.diff(lam)
    np.testing.assert_allclose(gaps[0], CLUSTER_GAP, rtol=1e-3)
    np.testing.assert_allclose(gaps[2], CLUSTER_GAP, rtol=1e-3)


def test_clustered_small_dimension_single_pair():
    h, _ = generate_instance(13, 2, profile="clustered", p=2.5)
    lam = np.linalg.eigvalsh(h.matrix)
    np.testing.assert_allclose(lam[1] - lam[0], CLUSTER_GAP, rtol=1e-3)


def test_generate_instance_validation():
    with pytest.raises(ValidationError):
        generate_instance(1, 1)
    with pytest.raises(ValidationError):
        generate_instance(1, 4, profile="weird")
    with pytest.raises(ValidationError):
        generate_instance(1, 4, p=0.5)


# SHA-256 of the bytes of H then V over the grid of
# test_instance_bytes_are_pinned, as drawn one seed at a time by the scalar
# generator before block draws existed (x86-64, numpy 2.4, OpenBLAS).
INSTANCE_GRID_SHA256 = "40ddc996b7f0af106ad50f349f2b032f8194d19302b84d0363cfa4723b10315e"


def test_instance_bytes_are_pinned():
    digest = hashlib.sha256()
    for seed in (3, 2**64 - 1):
        for dim in (2, 3, 4, 8):
            for profile in PROFILES:
                for p in (2.0, 3.5):
                    h, v = generate_instance(seed, dim, profile, p)
                    digest.update(h.matrix.tobytes())
                    digest.update(v.matrix.tobytes())
    assert digest.hexdigest() == INSTANCE_GRID_SHA256


@pytest.mark.parametrize("profile", PROFILES)
def test_stacked_seeds_match_single_calls_bitwise(profile):
    seeds = [0, 5, 104729, 2**63, 2**64 - 1]
    for dim, p in ((2, 2.0), (4, 2.5), (7, 3.5)):
        stacked = generate_instance(seeds, dim, profile, p)
        hs, vs = _draw(seeds, dim, profile, p)
        assert len(stacked) == len(seeds) == len(hs.matrix) == len(vs.matrix)
        for seed, (h, v), hd, vd in zip(seeds, stacked, hs.matrix, vs.matrix):
            h1, v1 = generate_instance(seed, dim, profile, p)
            assert h.matrix.tobytes() == h1.matrix.tobytes() == hd.tobytes()
            assert v.matrix.tobytes() == v1.matrix.tobytes() == vd.tobytes()
    assert generate_instance(range(3), 3, profile)[2][0].matrix.tobytes() == (
        generate_instance(2, 3, profile)[0].matrix.tobytes()
    )


class _ScalarSplitMix64:
    """The module docstring's algorithm restated one scalar at a time."""

    def __init__(self, seed):
        self.state = seed & MASK64
        self.spare = None

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal(self):
        if self.spare is not None:
            out, self.spare = self.spare, None
            return out
        u1 = self.uniform()
        u2 = self.uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        self.spare = r * np.sin(2.0 * np.pi * u2)
        return r * np.cos(2.0 * np.pi * u2)


def test_block_draws_match_the_scalar_algorithm():
    # Odd counts, and the even counts of dim-3 and dim-2 Hermitian draws
    # with a spare pending, exercise the spare hand-over between scalar
    # and block draws.
    for seed in (0, 77, 2**64 - 1):
        rng, ref = SplitMix64(seed), _ScalarSplitMix64(seed)
        script = [
            ("normal",), ("normals", 3), ("normals", 18), ("uniform",),
            ("normals", 0), ("normal",), ("normals", 8), ("normals", 5),
            ("normals", 4), ("next_u64",), ("normal",),
        ]
        for name, *args in script * 3:
            if name == "normals":
                want = np.array([ref.normal() for _ in range(args[0])])
            else:
                want = getattr(ref, name)(*args)
            got = getattr(rng, name)(*args)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (seed, name)
            assert rng.state == ref.state


def test_integer_seeds_wrap_modulo_two_to_the_64():
    # Negative and very large integer seeds (beyond float range too) still
    # wrap with MASK64; only fractions are rejected.
    for seed, wrapped in ((-1, MASK64), (2**64 + 5, 5), (10**400, 10**400 & MASK64)):
        assert SplitMix64(seed).state == wrapped
        for got, want in zip(generate_instance(seed, 3), generate_instance(wrapped, 3)):
            assert got.matrix.tobytes() == want.matrix.tobytes()
    assert SplitMix64(np.int64(-1)).state == MASK64
    assert SplitMix64(5.0).state == 5


@pytest.mark.parametrize("p", [1.5, 2.5, 3.5, 4.0])
def test_lp_norms_keep_the_bits_of_the_per_row_formula(p):
    # The stack's sums are one reduction; each row must keep the bits of
    # its own sum and its Python-float power, in any memory layout.
    rng = np.random.default_rng(41)
    for n in (*range(1, 70), 128):
        stack = rng.standard_normal((5, n))
        for spectra in (stack, np.asfortranarray(stack), stack[::-1, ::-1]):
            want = [float(np.sum(np.abs(row) ** p)) ** (1.0 / p) for row in spectra]
            got = lp_norms(spectra, p)
            assert got.shape == (5,) and got.tolist() == want
