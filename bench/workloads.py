"""The four request streams of the specforms benchmark.

Each workload has a fixed panel of requests, drawn once from a constant
key, and turns a benchmark seed into a deterministic stream of cycles:
every cycle is the whole panel in a seed-drawn order, each matrix request
presented in a seed-drawn exact variant (see `reflect`). A run performs
whole cycles, so every run does the same mix of work whatever its seed;
the cost of one request follows its spectra and differs tenfold between
requests, so a mix drawn afresh per seed made the mean cost of a run
depend on the seed more than on the program. The program receives only
the generated matrices (or, for the driver sweep, command-line
arguments); every result is checked outside the timed region against an
independent route, with tolerances read from
`specforms.experiments.DEFAULT_TOLERANCES`.

Why these four: the cost of a divided difference follows node geometry.
Tied nodes (repeated eigenvalues, nodes at the kink of |x|^p) take the
simplex-quadrature route, well separated nodes take the recursion, and
nodes that drift together take whichever side of the confluence switch
they land on. `tied-forms` exercises quadrature and form reuse,
`separated-integrals` bypasses quadrature entirely (the control for any
change to ties), `moving-segment` produces near-ties and a fresh
eigendecomposition per Gauss node, and `driver-sweep` is the only stream
through the experiment drivers, their worker pool and the CLI.
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass, replace

import numpy as np

SEED_SPACE = 10**9


@dataclass(frozen=True)
class Request:
    """One unit of timed work: `label` names its kind, `data` its inputs,
    `entry` its place in the workload's panel (None outside the panel)."""

    label: str
    data: tuple
    entry: int = None


def reflect(matrices, rng):
    """One exact variant of a set of Hermitian matrices, drawn from `rng`.

    All matrices are conjugated by the same random diagonal sign matrix D
    (M -> D M D) and, with probability one half, complex-conjugated. Both
    maps are exact in floating point and keep every spectrum, the real part
    of every trace of products and every exact zero or tie, so results and
    their cost are those of the panel entry while the entries the program
    sees differ.
    """
    dim = matrices[0].shape[0]
    signs = np.array([1.0] + [rng.choice((-1.0, 1.0)) for _ in range(dim - 1)])
    flip = np.outer(signs, signs)
    conj = rng.random() < 0.5
    return tuple(np.conj(m * flip) if conj else m * flip for m in matrices)


class Workload:
    """Base: subclasses define `make_panel`, `vary`, `call`, `check` and
    `warm_up`."""

    name = ""
    #: span names the traced run must see called at least once
    expected_spans = ()
    #: seconds one traced cycle takes on a 2-core host; sets how many
    #: cycles a traced run of --seconds performs (a fixed count per argument)
    traced_cycle_s = 1.0
    #: seconds one untraced cycle takes at the reference speed (run.py's
    #: REFERENCE_PROBE_S); sets how many cycles an untraced run performs
    cycle_s = 1.0
    #: latency is sampled per request, or per whole cycle when True
    sample_is_cycle = False

    def __init__(self, api):
        # `api` is the specforms package; names are looked up on it at call
        # time, so tracing wrappers installed after this point are reached.
        self.api = api
        self.tol = api.experiments.DEFAULT_TOLERANCES

    def panel(self):
        """The fixed panel, each request marked with its entry index."""
        panel = self.make_panel(random.Random(f"{self.name}:panel"))
        return [replace(request, entry=entry) for entry, request in enumerate(panel)]

    def stream(self, seed):
        """Endless cycles: the panel in an order and variant drawn from the
        benchmark seed."""
        panel = self.panel()
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            cycle = [self.vary(request, rng) for request in panel]
            rng.shuffle(cycle)
            yield cycle

    def make_panel(self, rng):
        raise NotImplementedError

    def vary(self, request, rng):
        """The request as presented in one cycle (default: unchanged)."""
        return request

    def call(self, request):
        raise NotImplementedError

    def check(self, request, result):
        """True when `result` agrees with the independent route."""
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def shared(self):
        """JSON-able state computed once per run, untimed, and handed to
        every worker process (default: none)."""
        return None

    def adopt(self, state):
        """Take over the state `shared` computed."""


class TiedForms(Workload):
    """delta_symmetric of order 1, 2, 3 along V at dim 8, p = 3.5.

    Every slot shares one decomposition, so every index tuple with a
    repeated index is an exact tie and goes to simplex quadrature; order 3
    also rebuilds its tensor for each of the 3! argument orders. One
    request is one instance at all three orders. Split per order, the
    median request fell among the order-2 requests, whose costs differ by
    profile, and flipped between them from run to run (quartile spread
    0.18 across ten seeds); nine whole instances put it inside one
    instance's samples.
    """

    name = "tied-forms"
    expected_spans = (
        "forms.delta_symmetric",
        "forms.model_delta_bracket",
        "moi.moi_exact",
        "divided.divided_difference",
        "divided.DividedDifference.__call__",
        "momenta.momentum_quadrature",
        "simplex.subsimplex_rule",
        "simplex.split_by_kink",
        "functions.PowerKernel.eval",
        "spectral.eigendecompose",
        "instances.generate_instance",
    )
    traced_cycle_s = 6.0
    cycle_s = 2.9
    dim = 8
    p = 3.5
    profiles = ("generic", "singular", "clustered")
    orders = (1, 2, 3)
    per_profile = 3

    def __init__(self, api):
        super().__init__(api)
        self._references = {}

    def make_panel(self, rng):
        out = []
        for profile in self.profiles:
            for _ in range(self.per_profile):
                h, v = self.api.generate_instance(
                    rng.randrange(SEED_SPACE), self.dim, profile, self.p
                )
                out.append(Request(profile, (h.matrix, v.matrix)))
        return out

    def vary(self, request, rng):
        return replace(request, data=reflect(request.data, rng))

    def call(self, request):
        h, v = request.data
        api = self.api
        out = []
        for k in self.orders:
            form = api.FrechetForm(h, api.SchattenExponent(self.p), k, self.tol["quad_tol"])
            out.append(api.delta_symmetric(form, [v] * k))
        return out

    def shared(self):
        return [self._reference(*request.data) for request in self.panel()]

    def adopt(self, state):
        self._references = {entry: ref for entry, ref in enumerate(state)}

    def check(self, request, result):
        """Finite differences when the spectrum is clear of the kink,
        otherwise the trace identity: tr T_{f^[k]}(V..V) equals the form.

        The independent route costs as much as the request itself, so it
        is computed once per panel entry (`shared`, or the first variant
        checked); the variants of an entry are exact conjugations of one
        another and share its values."""
        reference = self._references.get(request.entry)
        if reference is None:
            reference = self._reference(*request.data)
            if request.entry is not None:
                self._references[request.entry] = reference
        route, values = reference
        if len(result) != len(self.orders):
            return False
        for k, value, expected in zip(self.orders, result, values):
            if route == "fd":
                bound = max(self.tol["oracle_rel"] * abs(expected), self.tol["oracle_abs"])
                if abs(math.factorial(k) * value - expected) > bound:
                    return False
            elif abs(expected - value) > self.tol["trace_identity"]:
                return False
        return True

    def _reference(self, h, v):
        """(route, values per order) of the independent route."""
        api = self.api
        lam = np.linalg.eigvalsh(h)
        if float(np.min(np.abs(lam))) >= api.forms.FD_SAFE_GAP:
            return "fd", [api.fd_oracle(h, v, self.p, k)[0] for k in self.orders]
        decomposition = api.eigendecompose(h)
        values = []
        for k in self.orders:
            values.append(
                api.real_trace(
                    api.moi_exact(
                        api.MoiRequest(
                            (decomposition,) * (k + 1),
                            (v,) * k,
                            api.DividedDifference(api.PowerAbs(self.p), k),
                            self.tol["quad_tol"],
                        )
                    )
                )
            )
        return "trace", values

    def warm_up(self):
        h, v = self.api.generate_instance(1, 2, "singular", self.p)
        self.call(Request("warm-up", (h.matrix, v.matrix)))


# A cubic kernel with no kink: its companion identity holds to roundoff.
CUBIC = (0.25, -1.0, 0.5, 2.0)


class SeparatedIntegrals(Workload):
    """perturbation_identity with distinct A, B and tails, m = 1 and 2.

    One request is one seed checked at both orders with both kernels (the
    cubic and |x|^(m+1.5)), the unit run_perturbation_check works in.
    Distinct random spectra never tie, so quadrature is bypassed.
    """

    name = "separated-integrals"
    expected_spans = (
        "moi.perturbation_identity",
        "moi.moi_exact",
        "momenta.momentum_eval",
        "momenta.momentum_perturbation_pair",
        "divided.divided_difference",
        "functions.PowerKernel.eval",
        "functions.Polynomial.eval",
        "spectral.eigendecompose",
        "instances.generate_instance",
    )
    traced_cycle_s = 6.0
    cycle_s = 4.0
    dim = 8
    orders = (1, 2)
    panel_size = 8

    def _instance(self, rng, dim, m):
        p = m + 1.5
        draw = [
            self.api.generate_instance(rng.randrange(SEED_SPACE), dim, "generic", p)
            for _ in range(m + 2)
        ]
        (a, va), (b, vb) = draw[0], draw[1]
        tails = tuple(h.matrix for h, _ in draw[2:])
        perts = (va.matrix, vb.matrix)[:m]
        return (m, a.matrix, b.matrix, tails, perts)

    def make_panel(self, rng):
        return [
            Request("seed", tuple(self._instance(rng, self.dim, m) for m in self.orders))
            for _ in range(self.panel_size)
        ]

    def vary(self, request, rng):
        out = []
        for m, a, b, tails, perts in request.data:
            mats = reflect((a, b) + tails + perts, rng)
            out.append((m, mats[0], mats[1], mats[2 : 2 + len(tails)], mats[2 + len(tails) :]))
        return replace(request, data=tuple(out))

    def call(self, request):
        api = self.api
        out = []
        for m, a, b, tails, perts in request.data:
            for kind, kernel in (("poly", api.Polynomial(CUBIC)), ("power", api.PowerAbs(m + 1.5))):
                spec = api.MomentumSpec.from_divided_difference(kernel, m)
                residual = api.perturbation_identity(
                    spec, a, b, tails, perts, tol=self.tol["quad_tol"]
                )
                out.append((kind, residual))
        return out

    def check(self, request, result):
        """The identity's residual against the driver's own bounds."""
        bound = {"poly": self.tol["perturbation_poly"], "power": self.tol["perturbation_power"]}
        return len(result) == 2 * len(request.data) and all(
            residual <= bound[kind] for kind, residual in result
        )

    def warm_up(self):
        rng = random.Random("warm-up")
        self.call(Request("warm-up", tuple(self._instance(rng, 2, m) for m in self.orders)))


class MovingSegment(Workload):
    """taylor_integral_form(H0, H0 + 0.3 V/|V|_F, p) at dim 4, p = 2.5 and 3.5.

    The first operator slot rides H_t, so each Gauss node (8 doubling to
    at most 64, up to 120 per segment) costs a fresh eigendecomposition,
    and at small t the spectrum of H_t sits close to that of H_0. One
    request is one seed's segment at both exponents.
    """

    name = "moving-segment"
    expected_spans = (
        "forms.taylor_integral_form",
        "forms.model_delta_bracket",
        "moi.moi_exact",
        "spectral.eigendecompose",
        "spectral.apply_scalar_function",
        "divided.divided_difference",
        "momenta.momentum_quadrature",
        "functions.PowerKernel.eval",
        "instances.generate_instance",
    )
    traced_cycle_s = 10.0
    cycle_s = 3.8
    dim = 4
    panel_size = 10
    exponents = (2.5, 3.5)
    step = 0.3

    def _segment(self, seed, dim, p):
        h0, v = self.api.generate_instance(seed, dim, "generic", p)
        step = self.step * v.matrix / np.linalg.norm(v.matrix)
        return (p, h0.matrix, h0.matrix + step)

    def make_panel(self, rng):
        out = []
        for _ in range(self.panel_size):
            seed = rng.randrange(SEED_SPACE)
            out.append(
                Request("seed", tuple(self._segment(seed, self.dim, p) for p in self.exponents))
            )
        return out

    def vary(self, request, rng):
        return replace(
            request, data=tuple((p,) + reflect((h0, h1), rng) for p, h0, h1 in request.data)
        )

    def call(self, request):
        return [
            self.api.taylor_integral_form(h0, h1, p, quad_tol=self.tol["quad_tol"])
            for p, h0, h1 in request.data
        ]

    def check(self, request, result):
        """|lhs - rhs| of the exact integral expansion."""
        return len(result) == len(request.data) and all(
            abs(lhs - rhs) <= self.tol["integral_taylor"] for lhs, rhs in result
        )

    def warm_up(self):
        self.call(Request("warm-up", tuple(self._segment(1, 2, p) for p in self.exponents)))


class DriverSweep(Workload):
    """cli.main(argv) in-process with stdout captured, at program defaults.

    One cycle is one sweep over the drivers, each with its own --seed
    drawn for the panel, in an order drawn from the benchmark seed:
    selftest (dim 4), perturbation-check (dim 4), taylor-scan (p = 3.5,
    dim 8, each profile), holder-scan (p = 3.5, dim 4) and moi-convergence
    (dim 8). Each driver call is a request, timed and
    checked on its own, but latency is sampled per sweep: single calls
    differ twentyfold in cost, so a median over calls would be the cost of
    whichever driver sits in the middle. SF_THREADS is removed from the
    environment for the run, so the worker pool runs at its default width.
    """

    name = "driver-sweep"
    sample_is_cycle = True
    expected_spans = (
        "cli.main",
        "experiments.run",
        "experiments.run_selftest",
        "experiments.run_perturbation_check",
        "experiments.run_taylor_scan",
        "experiments.run_holder_scan",
        "experiments.run_moi_convergence",
        "experiments.thread_count",
        "moi.moi_binned",
        "moi.moi_separable",
        "moi.algebraic_shift",
        "spectral.schatten_norm",
        "forms.taylor_expand",
        "forms.trace_identity_residual",
        "forms.holder_difference_norms",
        "instances.generate_instance",
    )
    traced_cycle_s = 8.0
    cycle_s = 5.6
    profiles = ("generic", "singular", "clustered")

    def make_panel(self, rng):
        def seed():
            return str(rng.randrange(1, SEED_SPACE))

        out = [
            Request("selftest", ("selftest", "--dim", "4", "--seed", seed())),
            Request("perturbation-check", ("perturbation-check", "--dim", "4", "--seed", seed())),
        ]
        out += [
            Request(
                f"taylor-scan-{prof}",
                ("taylor-scan", "--p", "3.5", "--dim", "8", "--profile", prof, "--seed", seed()),
            )
            for prof in self.profiles
        ]
        out += [
            Request("holder-scan", ("holder-scan", "--p", "3.5", "--dim", "4", "--seed", seed())),
            Request("moi-convergence", ("moi-convergence", "--dim", "8", "--seed", seed())),
        ]
        return out

    def call(self, request):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.api.cli.main(list(request.data))

    def check(self, request, result):
        """Exit code 0: every check in the driver's report passed."""
        return result == 0

    def warm_up(self):
        for argv in (("taylor-scan", "--p", "3.5", "--dim", "2"), ("moi-convergence", "--dim", "2")):
            self.call(Request("warm-up", argv))


WORKLOADS = {w.name: w for w in (TiedForms, SeparatedIntegrals, MovingSegment, DriverSweep)}
