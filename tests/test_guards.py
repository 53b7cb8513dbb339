"""Every guarded entry point rejects NaN, the numeric arguments that must
be finite and positive reject infinities and non-positive values, those
that count reject fractions, and the matrix arguments of the oracles reject
non-Hermitian input or a shape unlike their partner's, with a
ValidationError that names the offending argument."""

import inspect

import numpy as np
import pytest

from specforms import moi
from specforms import (
    CallableKernel,
    DividedDifference,
    ExperimentConfig,
    FrechetForm,
    HermitianMatrix,
    MoiRequest,
    Monomial,
    Polynomial,
    PowerAbs,
    PowerKernel,
    SchattenExponent,
    SeparableSymbol,
    SplitMix64,
    UnsupportedConfigError,
    ValidationError,
    algebraic_shift,
    apply_scalar_function,
    delta_symmetric,
    divided_difference,
    embedded_delta,
    fd_oracle,
    eigendecompose,
    fit_loglog_slope,
    generate_instance,
    holder_difference_norms,
    model_delta_bracket,
    moi_exact,
    moi_separable,
    perturbation_identity,
    schatten_norm,
    taylor_expand,
    taylor_integral_form,
    trace_identity_residual,
)
from specforms.forms import selfadjoint_embed
from specforms.moi import binned_eigenvalues, moi_binned
from specforms.momenta import (
    MomentumSpec,
    momentum_eval,
    momentum_perturbation_pair,
    momentum_quadrature,
)

NAN = float("nan")
H = np.diag([0.3, -0.2])
V = 0.5 * np.eye(2)
# 0.3 above the diagonal only: the lower triangle alone looks Hermitian.
SKEW = np.array([[0.0, 0.3], [0.0, 0.0]])
DD_SPEC = MomentumSpec.from_divided_difference(PowerAbs(2.5), 1)

CALLS = {
    "divided_difference": (lambda: divided_difference(PowerAbs(2.5), [NAN, 0.1]), "^nodes"),
    "divided_difference rows": (
        lambda: divided_difference(PowerAbs(2.5), [[0.2, 0.1], [0.3, NAN]]),
        "^nodes",
    ),
    "DividedDifference": (lambda: DividedDifference(PowerAbs(2.5), 1)([NAN, 0.1]), "^nodes"),
    "momentum_eval table": (lambda: momentum_eval(DD_SPEC, [NAN, 0.1]), "^nodes"),
    # A momentum's kernel is its origin's derivative, and it has an origin.
    "MomentumSpec kernel": (
        lambda: MomentumSpec(m=2, kernel=Polynomial((1.0,)), origin=PowerAbs(3.5)),
        r"^kernel Polynomial\(.*\) of an order-2 momentum is not the derivative "
        r"PowerKernel\(8.75, 1.5, 0\) of its origin PowerKernel\(1.0, 3.5, 0\)$",
    ),
    "MomentumSpec origin": (
        lambda: MomentumSpec(m=1, kernel=DD_SPEC.kernel, origin=None),
        "^cannot use None as a scalar kernel",
    ),
    "momentum_quadrature": (lambda: momentum_quadrature(PowerAbs(2.5), [NAN, 0.1]), "^arguments"),
    "momentum_quadrature tol": (
        lambda: momentum_quadrature(PowerAbs(2.5), [0.2, 0.1], tol=NAN),
        "^quadrature tol",
    ),
    "PowerAbs": (lambda: PowerAbs(NAN), "1 < p < inf, got nan"),
    "fd_oracle p": (lambda: fd_oracle(H, V, NAN, 1), "1 < p < inf, got nan"),
    "selfadjoint_embed": (lambda: selfadjoint_embed(np.eye(2), NAN), "needs p >= 1, got nan"),
    "generate_instance": (lambda: generate_instance(1, 3, "generic", NAN), "needs p >= 1, got nan"),
    # An infinite p would leave ||H||_inf, not ||H||_p, at 1.
    "generate_instance p=inf": (
        lambda: generate_instance(1, 4, "generic", np.inf),
        "needs p >= 1, got inf; p must be finite",
    ),
    "PowerKernel beta": (lambda: PowerKernel(1.0, NAN), "^power exponent beta must be finite"),
    "DividedDifference model": (
        lambda: DividedDifference(None, 1),
        "^cannot use None as a scalar kernel",
    ),
    "MoiRequest tol='x'": (
        lambda: MoiRequest((H, H), (V,), DividedDifference(PowerAbs(2.5), 1), "x"),
        "^quadrature tol must be a number, got 'x'",
    ),
    "taylor_expand t_grid rows": (
        lambda: taylor_expand(H, V, 2.5, t_grid=[[1e-3, 1e-2], [1e-2, 1e-1]]),
        "^t grid must be nonempty, finite and positive$",
    ),
    "fd_oracle base": (lambda: fd_oracle(H + SKEW, V, 3.5, 2), "^base is not Hermitian"),
    "fd_oracle direction": (lambda: fd_oracle(H, V + SKEW, 3.5, 2), "^direction is not Hermitian"),
    "taylor_integral_form h0": (
        lambda: taylor_integral_form(H + SKEW, H + 0.1 * V, 3.5),
        "^h0 is not Hermitian",
    ),
    "taylor_integral_form h1": (
        lambda: taylor_integral_form(H, H + SKEW, 3.5),
        "^h1 is not Hermitian",
    ),
    "taylor_integral_form h1 shape": (
        lambda: taylor_integral_form(H, np.diag([0.3, -0.2, 0.1]), 3.5),
        "^h1 has shape",
    ),
    "taylor_integral_form quad_tol": (
        # m = 1 (p <= 2) builds no request: the form checks its tolerance itself.
        lambda: taylor_integral_form(H, H + 0.1 * V, 1.5, quad_tol=NAN),
        "^quadrature tol",
    ),
    "FrechetForm quad_tol": (
        lambda: FrechetForm(eigendecompose(H), 2.5, quad_tol=NAN),
        "^quadrature tol",
    ),
    "fit_loglog_slope x": (lambda: fit_loglog_slope([1.0, NAN, 3.0], [1.0, 2.0, 3.0]), "^slope fit"),
    "fit_loglog_slope y": (lambda: fit_loglog_slope([1.0, 2.0, 3.0], [1.0, NAN, 3.0]), "^slope fit"),
    "fit_loglog_slope inf": (
        lambda: fit_loglog_slope([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
        "^slope fit",
    ),
    # A fit through one x value has no slope, however many points share it.
    "fit_loglog_slope one x": (
        lambda: fit_loglog_slope([0.01] * 4, [1.0, 2.0, 3.0, 4.0]),
        "^slope fit needs at least two distinct x values",
    ),
    # A base or direction given as a matrix is checked by name before it is
    # decomposed.
    "FrechetForm base": (lambda: FrechetForm(H + SKEW, 2.5), "^base is not Hermitian"),
    "model_delta_bracket base": (
        lambda: model_delta_bracket(H + SKEW, PowerAbs(2.5), [V]),
        "^base is not Hermitian",
    ),
    "taylor_expand H": (lambda: taylor_expand(H + SKEW, V, 2.5), "^H is not Hermitian"),
    "holder_difference_norms direction Hermitian": (
        lambda: holder_difference_norms(PowerAbs(2.5), H, V + SKEW, [H], [V], [0.1], 2.5),
        "^direction is not Hermitian",
    ),
}
# Counts and orders are not truncated: a fraction or NaN is rejected.
for bad in (NAN, 2.7):
    CALLS[f"MomentumSpec m={bad}"] = (
        lambda bad=bad: MomentumSpec(m=bad, kernel=PowerAbs(2.5), origin=PowerAbs(2.5)),
        "^divided-difference order must be a whole number",
    )
    CALLS[f"binned_eigenvalues n={bad}"] = (
        lambda bad=bad: binned_eigenvalues([0.1, 0.5], bad),
        "^bin count must be a whole number",
    )
    CALLS[f"DividedDifference order={bad}"] = (
        lambda bad=bad: DividedDifference(PowerAbs(3.5), bad),
        "^divided-difference order must be a whole number",
    )
    CALLS[f"PowerKernel parity={bad}"] = (
        lambda bad=bad: PowerKernel(1.0, 2.5, parity=bad),
        "^parity must be a whole number",
    )
    CALLS[f"HermitianMatrix.from_dict dim={bad}"] = (
        lambda bad=bad: HermitianMatrix.from_dict({"dim": bad, "re": np.eye(2), "im": 0 * H}),
        "^malformed matrix payload: matrix dimension must be a whole number",
    )
# Orders, degrees, exponents and the integer fields of a run config are not
# truncated either.
WHOLE = {
    "from_divided_difference k": (
        lambda: MomentumSpec.from_divided_difference(PowerAbs(3.5), 2.7),
        "^divided-difference order",
    ),
    "fd_oracle k": (lambda: fd_oracle(H, V, 3.5, 2.7), "^order k"),
    "embedded_delta k": (lambda: embedded_delta(H, V, 3.5, 2.7), "^order k"),
    "PowerKernel.derivative_model k": (
        lambda: PowerAbs(3.5).derivative_model(2.7),
        "^derivative order",
    ),
    "Polynomial.derivative_model k": (
        lambda: Polynomial((0.5, 1.0, 2.0)).derivative_model(2.7),
        "^derivative order",
    ),
    "Monomial n": (lambda: Monomial(2.7), "^monomial degree"),
    "generate_instance dim": (lambda: generate_instance(1, 2.7), "^instance dimension"),
    "generate_instance seed": (lambda: generate_instance(2.7, 3), "^seed"),
    "generate_instance seeds": (lambda: generate_instance([1, 2.7], 3), "^seed"),
    "SplitMix64 seed": (lambda: SplitMix64(2.7), "^seed"),
    "SplitMix64.normals n": (lambda: SplitMix64(1).normals(2.7), "^normal count"),
    "FrechetForm order": (lambda: FrechetForm(eigendecompose(H), 3.5, order=2.7), "^form order"),
    "algebraic_shift powers": (
        lambda: algebraic_shift(
            MoiRequest((H, H), (V,), DividedDifference(PowerAbs(3.5), 1)), (1, 2.7)
        ),
        "^monomial exponent",
    ),
    "ExperimentConfig seed": (lambda: ExperimentConfig("selftest", seed=2.7), "^seed"),
    "ExperimentConfig dim": (lambda: ExperimentConfig("selftest", dim=2.7), "^dim"),
    "ExperimentConfig n_grid": (
        lambda: ExperimentConfig("selftest", n_grid=(2.7, 8)),
        "^n grid entry",
    ),
}
for name, (call, message) in WHOLE.items():
    CALLS[f"{name}=2.7"] = (call, message + " must be a whole number, got 2.7")
# Negative orders and counts raise the typed error too.
CALLS["Polynomial.derivative_model k=-1"] = (
    lambda: Polynomial((0.5, 1.0, 2.0)).derivative_model(-1),
    "^derivative order must be >= 0",
)
CALLS["SplitMix64.normals n=-1"] = (
    lambda: SplitMix64(1).normals(-1),
    "^normal count must be >= 0, got -1",
)
# Non-finite perturbations are rejected where the slots are prepared, each
# named by its slot and, in a stack, by its member.
DD1 = DividedDifference(PowerAbs(2.5), 1)
CALLS["moi_exact perturbation"] = (
    lambda: moi_exact(MoiRequest((H, H), (V * NAN,), DD1)),
    "^perturbation 0 has a non-finite entry",
)
CALLS["moi_exact perturbation stack"] = (
    lambda: moi_exact(MoiRequest((H, H), (np.stack([V, V * NAN]),), DD1)),
    "^perturbation 0 at stack index 1 has a non-finite entry",
)
CALLS["moi_separable perturbation"] = (
    lambda: moi_separable(SeparableSymbol(((1.0, (Monomial(1),) * 2),)), (H, H), (V * NAN,)),
    "^perturbation 0 has a non-finite entry",
)
# A symbol that states its order takes that many perturbations.
CALLS["moi_separable order"] = (
    lambda: moi_separable(SeparableSymbol(((1.0, (Monomial(1),) * 3),)), (H, H), (V,)),
    "^symbol takes 3 arguments, got 2",
)
CALLS["MoiRequest order"] = (
    lambda: MoiRequest((H, H), (V,), DividedDifference(PowerAbs(3.5), 2)),
    "^symbol takes 3 arguments, got 2",
)
CALLS["MoiRequest momentum order"] = (
    lambda: MoiRequest((H, H, H), (V, V), MomentumSpec.from_divided_difference(PowerAbs(3.5), 1)),
    "^symbol takes 2 arguments, got 3",
)
# A monomial power past the float range names its slot, its exponent and the
# eigenvalue, whether the power or the exponent itself is out of range.
H_WIDE = np.diag([1.9, -0.2])
CALLS["algebraic_shift power overflow"] = (
    lambda: algebraic_shift(MoiRequest((H_WIDE, H_WIDE), (V,), DD1), (1200, 0)),
    "^monomial exponent 1200 of decomposition 0 overflows at eigenvalue 1.9$",
)
CALLS["algebraic_shift exponent overflow"] = (
    lambda: algebraic_shift(MoiRequest((H_WIDE, H_WIDE), (V,), DD1), (0, 10**400)),
    f"^monomial exponent {10**400} of decomposition 1 overflows at eigenvalue -0.2$",
)
# Powers that are each in range but whose product overflows name the shift,
# not the symbol.
CALLS["algebraic_shift product overflow"] = (
    lambda: algebraic_shift(MoiRequest((H_WIDE, H_WIDE), (V,), DD1), (600, 600)),
    r"^symbol times the monomial shift of exponents \(600, 600\) evaluated to inf at "
    r"eigenvalue tuple \(1\.9, 1\.9\)$",
)
CALLS["perturbation_identity perturbation"] = (
    lambda: perturbation_identity(DD_SPEC, H, H + 0.1 * V, [H], [V * NAN]),
    "^perturbation 0 has a non-finite entry",
)
CALLS["holder_difference_norms perturbation"] = (
    lambda: holder_difference_norms(PowerAbs(2.5), H, V, [H], [V * NAN], [0.1], 2.5),
    "^perturbation 0 has a non-finite entry",
)
CALLS["holder_difference_norms direction"] = (
    lambda: holder_difference_norms(PowerAbs(2.5), H, V * NAN, [H], [V], [0.1], 2.5),
    "^direction has a non-finite entry",
)
CALLS["holder_difference_norms t_grid rows"] = (
    lambda: holder_difference_norms(PowerAbs(2.5), H, V, [H], [V], [[0.1, 0.2], [0.3, 0.4]], 3),
    "^t grid must be nonempty, finite and positive$",
)
# One string is not a list of one-character entries.
CALLS["ExperimentConfig dir_paths str"] = (
    lambda: ExperimentConfig(mode="derivative", dir_paths="v.json"),
    "^dir_paths must be a sequence of paths, got the string 'v.json'",
)
CALLS["ExperimentConfig t_grid str"] = (
    lambda: ExperimentConfig(mode="holder-scan", t_grid="12"),
    "^t_grid must be a sequence of numbers, got the string '12'",
)
CALLS["ExperimentConfig n_grid str"] = (
    lambda: ExperimentConfig(mode="moi-convergence", n_grid="48"),
    "^n_grid must be a sequence of numbers, got the string '48'",
)
# A string field is tested for its type before its value, and a sequence
# field that is not one names itself.
ARRAY = np.array(["selftest", "json"])
for field in ("mode", "profile", "fmt"):
    CALLS[f"ExperimentConfig {field} array"] = (
        lambda field=field: ExperimentConfig(**{"mode": "selftest", field: ARRAY}),
        f"^{field} must be a str, got array",
    )
for field in ("out_dir", "matrix_path"):
    CALLS[f"ExperimentConfig {field}=nan"] = (
        lambda field=field: ExperimentConfig("selftest", **{field: NAN}),
        f"^{field} must be a str, got nan$",
    )
for field in ("n_grid", "dir_paths"):
    CALLS[f"ExperimentConfig {field}=None"] = (
        lambda field=field: ExperimentConfig("selftest", **{field: None}),
        f"^{field} must be a sequence, got None$",
    )
# A momentum's weight terms are a sequence of (exponents, coefficient) pairs.
for bad in ("abc", NAN):
    CALLS[f"MomentumSpec q_terms={bad!r}"] = (
        lambda bad=bad: MomentumSpec(2, DD_SPEC.origin.derivative_model(2), DD_SPEC.origin, bad),
        rf"^q_terms must be \(exponents, coefficient\) pairs, got {bad!r}$",
    )
# A matrix payload, or the X of a dilation, must be one matrix.
CALLS["HermitianMatrix.from_dict array"] = (
    lambda: HermitianMatrix.from_dict(np.ones((2, 2, 2))),
    "^malformed matrix payload",
)
for name, call in (
    ("selfadjoint_embed", lambda x: selfadjoint_embed(x, 2.5)),
    ("embedded_delta", lambda x: embedded_delta(x, x, 2.5, 1)),
):
    CALLS[f"{name} X string"] = (
        lambda call=call: call("abc"),
        "^embedded matrix X must be numeric, got 'abc'$",
    )
    CALLS[f"{name} X stack"] = (
        lambda call=call: call(np.ones((2, 2, 2))),
        r"^embedded matrix X must be 2-D, got shape \(2, 2, 2\)$",
    )
CALLS["holder_difference_norms empty t_grid"] = (
    lambda: holder_difference_norms(PowerAbs(2.5), H, V, [H], [V], [], 3),
    "^t grid must be nonempty, finite and positive$",
)
# The t-grid rule is one: a t <= 0 is refused where a grid enters.
for bad in (0.0, -0.1):
    CALLS[f"holder_difference_norms t={bad}"] = (
        lambda bad=bad: holder_difference_norms(PowerAbs(2.5), H, V, [H], [V], [bad, 0.1], 2.5),
        "^t grid must be nonempty, finite and positive$",
    )
# A grid that no slope can be fitted to is refused by the config, before
# any work, with the fit's own message.
for field, grid in (("n_grid", (512,)), ("t_grid", (0.01, 0.01))):
    CALLS[f"ExperimentConfig {field}={grid}"] = (
        lambda field=field, grid=grid: ExperimentConfig("selftest", **{field: grid}),
        "^slope fit needs at least two distinct x values$",
    )
# A 0 x 0 matrix is refused by name wherever a raw matrix enters.
EMPTY = np.zeros((0, 0))
EMPTY_CALLS = {
    "FrechetForm": (lambda: FrechetForm(EMPTY, 2.5), "base"),
    "model_delta_bracket": (lambda: model_delta_bracket(EMPTY, PowerAbs(2.5), [V]), "base"),
    "MoiRequest": (lambda: MoiRequest((EMPTY, EMPTY), (EMPTY,), DD1), "decomposition 0"),
    "perturbation_identity": (
        lambda: perturbation_identity(DD_SPEC, EMPTY, EMPTY, [EMPTY], [EMPTY]),
        "A",
    ),
    "taylor_expand": (lambda: taylor_expand(EMPTY, EMPTY, 2.5), "H"),
    "fd_oracle": (lambda: fd_oracle(EMPTY, EMPTY, 3.5, 1), "base"),
    "taylor_integral_form": (lambda: taylor_integral_form(EMPTY, EMPTY, 3.5), "h0"),
}
for name, (call, what) in EMPTY_CALLS.items():
    CALLS[f"{name} 0 x 0"] = (
        call,
        rf"^{what} must have dimension >= 1, got shape \(0, 0\)$",
    )
# So is a stack of no matrices, wherever a matrix or a stack enters.
EMPTY_STACK = np.zeros((0, 2, 2))
G = PowerAbs(2.5).derivative_model(1)
EMPTY_STACK_CALLS = {
    "FrechetForm": (lambda: FrechetForm(EMPTY_STACK, 2.5), "base"),
    "eigendecompose": (lambda: eigendecompose(EMPTY_STACK), "matrix"),
    "MoiRequest": (lambda: MoiRequest((H, H), (EMPTY_STACK,), DD1), "perturbation 0"),
    "perturbation_identity": (
        lambda: perturbation_identity(DD_SPEC, EMPTY_STACK, H, [H], [V]),
        "A",
    ),
    "taylor_integral_form": (lambda: taylor_integral_form(EMPTY_STACK, EMPTY_STACK, 3.5), "h0"),
    "holder_difference_norms": (
        lambda: holder_difference_norms(G, H, EMPTY_STACK, [H], [V], [0.1], 2.5),
        "direction",
    ),
}
for name, (call, what) in EMPTY_STACK_CALLS.items():
    CALLS[f"{name} empty stack"] = (
        call,
        rf"^{what}: a stack must hold at least one matrix$",
    )
CALLS["schatten_norm"] = (
    lambda: schatten_norm(np.diag([NAN, 1.0]), 2.5),
    "^matrix has a non-finite entry",
)
# Model coefficients and symbol weights are checked when they are made.
CALLS["PowerKernel coef"] = (
    lambda: divided_difference(PowerKernel(NAN, 2.0), [0.1, 0.2]),
    "^power coefficient must be finite, got nan",
)
CALLS["PowerKernel coef=inf"] = (
    lambda: PowerKernel(np.inf, 2.0).eval(0.5),
    "^power coefficient must be finite, got inf",
)
CALLS["Polynomial coeffs"] = (
    lambda: divided_difference(Polynomial([1.0, NAN]), [0.1, 0.2]),
    "^polynomial coefficients must be finite",
)
for bad in (NAN, np.inf):
    CALLS[f"SeparableSymbol weight={bad}"] = (
        lambda bad=bad: SeparableSymbol(((bad, (Monomial(1),) * 2),)),
        "^separable weights must be finite",
    )
# Terms, and each term's factors, that are not sequences name themselves.
CALLS["SeparableSymbol terms=5"] = (
    lambda: SeparableSymbol(5),
    "^separable terms must be a sequence, got 5$",
)
CALLS["SeparableSymbol factors=5"] = (
    lambda: SeparableSymbol(((1.0, 5),)),
    "^separable factors must be a sequence, got 5$",
)
CALLS["SeparableSymbol factors=PowerAbs"] = (
    lambda: SeparableSymbol(((1.0, PowerAbs(2.5)),)),
    r"^separable factors must be a sequence, got PowerKernel\(1\.0, 2\.5, 0\)$",
)
# Fields a run config reads as numbers name themselves.
NUMBERS = (("p", "x", "^p"), ("t_grid", ["abc"], "^t grid entry"))
for field, bad, message in NUMBERS:
    CALLS[f"ExperimentConfig {field}={bad!r}"] = (
        lambda field=field, bad=bad: ExperimentConfig("selftest", **{field: bad}),
        message + " must be a number",
    )
# Numbers read from model, symbol and norm arguments name themselves.
CALLS["PowerKernel coef='x'"] = (
    lambda: PowerKernel("x", 2.0),
    "^power coefficient must be a number, got 'x'",
)
CALLS["Polynomial coeffs='x'"] = (
    lambda: Polynomial(["x"]),
    "^polynomial coefficient must be a number, got 'x'",
)
CALLS["SeparableSymbol weight='x'"] = (
    lambda: SeparableSymbol((("x", (Monomial(1),) * 2),)),
    "^separable weight must be a number, got 'x'",
)
CALLS["schatten_norm p='x'"] = (
    lambda: schatten_norm(np.eye(2), "x"),
    "^Schatten exponent p must be a number, got 'x'",
)
CALLS["SchattenExponent p='x'"] = (lambda: SchattenExponent("x"), "^exponent p must be a number")
CALLS["selfadjoint_embed p='x'"] = (
    lambda: selfadjoint_embed(np.eye(2), "x"),
    "^embedding p must be a number",
)
CALLS["generate_instance p='x'"] = (
    lambda: generate_instance(1, 3, "generic", "x"),
    "^instance normalization p must be a number",
)
CALLS["holder_difference_norms t_grid='a'"] = (
    lambda: holder_difference_norms(PowerAbs(2.5), H, V, [H], [V], ["a", "b"], 2.5),
    "^t grid entry must be a number, got 'a'",
)
# NaN is not a bin position.
CALLS["binned_eigenvalues nan"] = (
    lambda: binned_eigenvalues([NAN], 4),
    "^eigenvalues to bin must be finite",
)
# A stack of segments names its bad member, and stacks must match.
CALLS["taylor_integral_form h1 stack"] = (
    lambda: taylor_integral_form(np.stack([H, H]), np.stack([H + 0.1 * V, H + SKEW]), 3.5),
    "^h1 at stack index 1 is not Hermitian",
)
CALLS["taylor_integral_form stack lengths"] = (
    lambda: taylor_integral_form(np.stack([H, H]), np.stack([H + 0.1 * V] * 3), 3.5),
    r"^h1 has shape \(3, 2, 2\), h0 has \(2, 2, 2\)",
)
# A request's tolerance is checked where the request is made, even when no
# row of its symbol would reach quadrature.
for bad in (NAN, 0.0, -1.0, np.inf):
    CALLS[f"MoiRequest tol={bad}"] = (
        lambda bad=bad: MoiRequest((H, H), (V,), DividedDifference(PowerAbs(2.5), 1), bad),
        "^quadrature tol",
    )
# Infinite, zero and negative tolerances fail the same guards.
for bad in (0.0, -1e-9, np.inf):
    CALLS[f"momentum_quadrature tol={bad}"] = (
        lambda bad=bad: momentum_quadrature(PowerAbs(2.5), [0.2, 0.1], tol=bad),
        "^quadrature tol",
    )

# A direction is checked where it enters a form: one of another size than
# its base, a stack where one matrix is wanted, or a non-finite entry.
H4 = np.diag([0.4, -0.3, 0.2, -0.1])
V3 = 0.1 * np.eye(3)
V4_NAN = np.where(np.eye(4) == 1.0, 0.1, 0.0)
V4_NAN[0, 0] = NAN
CALLS["taylor_expand direction size"] = (
    lambda: taylor_expand(H4, V3, 3.5),
    r"^direction has shape \(3, 3\), H has \(4, 4\)",
)
CALLS["taylor_expand direction stack"] = (
    lambda: taylor_expand(H4, np.stack([0.1 * np.eye(4)] * 13), 3.5),
    r"^direction has shape \(13, 4, 4\), H has \(4, 4\)",
)
CALLS["fd_oracle direction size"] = (
    lambda: fd_oracle(H4, V3, 3.5, 1),
    r"^direction has shape \(3, 3\), base has \(4, 4\)",
)
CALLS["model_delta_bracket direction size"] = (
    lambda: model_delta_bracket(eigendecompose(H4), PowerAbs(3.5), [V3]),
    r"^direction 0 has shape \(3, 3\), the base is 4 x 4",
)
CALLS["model_delta_bracket direction nan"] = (
    lambda: model_delta_bracket(eigendecompose(H4), PowerAbs(3.5), [V4_NAN]),
    "^direction 0 has a non-finite entry",
)
# Stacks of different lengths, among the directions or against a stacked
# base, are refused before any integral; so is a trace-identity direction
# of another size or stack length than its base.
V4 = 0.1 * np.eye(4)
CALLS["model_delta_bracket direction stacks"] = (
    lambda: model_delta_bracket(
        eigendecompose(H4), PowerAbs(3.5), [np.stack([V4] * 3), np.stack([V4] * 2)]
    ),
    r"^stacks differ in length: \[2, 3\]$",
)
CALLS["model_delta_bracket base stack"] = (
    lambda: model_delta_bracket(
        eigendecompose(np.stack([H4] * 2)), PowerAbs(3.5), [V4, np.stack([V4] * 3)]
    ),
    r"^stacks differ in length: \[2, 3\]$",
)
CALLS["trace_identity_residual direction size"] = (
    lambda: trace_identity_residual(FrechetForm(eigendecompose(H4), 3.5, order=2), V3),
    r"^direction has shape \(3, 3\), base has \(4, 4\)$",
)
CALLS["trace_identity_residual direction stack"] = (
    lambda: trace_identity_residual(
        FrechetForm(eigendecompose(np.stack([H4] * 2)), 3.5, order=2), np.stack([V4] * 3)
    ),
    r"^direction has shape \(3, 4, 4\), base has \(2, 4, 4\)$",
)
CALLS["trace_identity_residual direction Hermitian"] = (
    lambda: trace_identity_residual(FrechetForm(eigendecompose(H), 3.5, order=2), V + SKEW),
    "^direction is not Hermitian",
)
# delta_symmetric names the bad direction by its index, as model_delta_bracket does.
CALLS["delta_symmetric direction Hermitian"] = (
    lambda: delta_symmetric(FrechetForm(eigendecompose(H), 2.5, order=2), [V, V + SKEW]),
    r"^direction 1 is not Hermitian: max \|A - A\*\| = ",
)
CALLS["delta_symmetric direction size"] = (
    lambda: delta_symmetric(FrechetForm(eigendecompose(H), 2.5, order=2), [V, np.eye(3)]),
    r"^direction 1 has shape \(3, 3\), the base is 2 x 2$",
)
CALLS["holder_difference_norms order"] = (
    lambda: holder_difference_norms(Monomial(5), H, V, [H] * 4, [V] * 4, (0.1,), 2.5),
    r"^operator integral order 4 outside 0\.\.3$",
)

# An argument that must be a sequence, or numbers, and is not: None, a
# number or a string where matrices, exponents or nodes are wanted.
B = np.diag([0.1, 0.25])
DD1 = DividedDifference(PowerAbs(2.5), 1)
SEP1 = SeparableSymbol(((1.0, (PowerAbs(2.5), PowerAbs(2.5))),))
for name, call, message in (
    (
        "perturbation_identity tail None",
        lambda: perturbation_identity(DD_SPEC, H, B, None, (V,)),
        "^tail must be a sequence, got None$",
    ),
    (
        "perturbation_identity tail number",
        lambda: perturbation_identity(DD_SPEC, H, B, 3.0, (V,)),
        "^tail must be a sequence, got 3.0$",
    ),
    (
        "perturbation_identity perturbations None",
        lambda: perturbation_identity(DD_SPEC, H, B, (H,), None),
        "^perturbations must be a sequence, got None$",
    ),
    (
        "MoiRequest perturbations None",
        lambda: MoiRequest((H, B), None, DD1),
        "^perturbations must be a sequence, got None$",
    ),
    (
        "MoiRequest decompositions None",
        lambda: MoiRequest(None, (V,), DD1),
        "^decompositions must be a sequence, got None$",
    ),
    (
        "moi_separable perturbations None",
        lambda: moi_separable(SEP1, (H, B), None),
        "^perturbations must be a sequence, got None$",
    ),
    (
        "model_delta_bracket directions None",
        lambda: model_delta_bracket(eigendecompose(H), PowerAbs(2.5), None),
        "^directions must be a sequence, got None$",
    ),
    (
        "delta_symmetric directions None",
        lambda: delta_symmetric(FrechetForm(eigendecompose(H), 2.5), None),
        "^directions must be a sequence, got None$",
    ),
    (
        "algebraic_shift powers None",
        lambda: algebraic_shift(MoiRequest((H, B), (V,), DD1), None),
        "^monomial exponents must be a sequence, got None$",
    ),
    (
        "holder_difference_norms tail None",
        lambda: holder_difference_norms(PowerAbs(2.5), H, V, None, (), (0.1, 0.2), 2.5),
        "^tail must be a sequence, got None$",
    ),
    (
        "schatten_norm string",
        lambda: schatten_norm("abc", 2.0),
        "^Schatten norm matrix must be numeric, got 'abc'$",
    ),
    (
        "divided_difference string",
        lambda: divided_difference(PowerAbs(2.5), "abc"),
        "^nodes must be numeric, got 'abc'$",
    ),
    # The scalar layer: a model comes through as_kernel, a kernel or a
    # symbol reads its arguments as numbers, and a form must be a form.
    (
        "FrechetForm model string",
        lambda: FrechetForm(eigendecompose(H), 2.5, model="abc"),
        "^cannot use 'abc' as a scalar kernel$",
    ),
    (
        "model_delta_bracket model string",
        lambda: model_delta_bracket(eigendecompose(H), "abc", (V,)),
        "^cannot use 'abc' as a scalar kernel$",
    ),
    (
        "apply_scalar_function model string",
        lambda: apply_scalar_function("abc", eigendecompose(H)),
        "^cannot use 'abc' as a scalar kernel$",
    ),
    (
        "PowerKernel.eval string",
        lambda: PowerAbs(2.5).eval("a"),
        "^kernel arguments must be numeric, got 'a'$",
    ),
    (
        "Polynomial.eval string",
        lambda: Polynomial((0.5, 1.0)).eval("a"),
        "^kernel arguments must be numeric, got 'a'$",
    ),
    (
        "CallableKernel.eval string",
        lambda: CallableKernel(np.abs).eval("a"),
        "^kernel arguments must be numeric, got 'a'$",
    ),
    (
        "delta_symmetric form string",
        lambda: delta_symmetric("abc", (V,)),
        "^form must be a FrechetForm, got 'abc'$",
    ),
    (
        "trace_identity_residual form string",
        lambda: trace_identity_residual("abc", V),
        "^form must be a FrechetForm, got 'abc'$",
    ),
    (
        "DividedDifference string",
        lambda: DD1("ab"),
        "^symbol arguments must be numeric, got 'ab'$",
    ),
    (
        "SeparableSymbol string",
        lambda: SEP1(["a", "b"]),
        r"^symbol arguments must be numeric, got \['a', 'b'\]$",
    ),
    (
        "momentum_eval string",
        lambda: momentum_eval(DD_SPEC, "ab"),
        "^symbol arguments must be numeric, got 'ab'$",
    ),
    (
        "momentum_quadrature string",
        lambda: momentum_quadrature(PowerAbs(2.5), ["a", "b"]),
        r"^arguments must be numeric, got \['a', 'b'\]$",
    ),
    (
        "momentum_eval spec string",
        lambda: momentum_eval("x", [0.1, 0.2]),
        "^spec must be a MomentumSpec, got 'x'$",
    ),
    (
        "momentum_perturbation_pair spec string",
        lambda: momentum_perturbation_pair("x"),
        "^spec must be a MomentumSpec, got 'x'$",
    ),
    (
        "apply_scalar_function decomposition string",
        lambda: apply_scalar_function(PowerAbs(2.5), "abc"),
        "^decomposition must be a SpectralDecomposition, got 'abc'$",
    ),
    (
        "CallableKernel.eval string values",
        lambda: CallableKernel(lambda x: "abc").eval(0.5),
        "^kernel values must be numeric, got 'abc'$",
    ),
    # An argument of the wrong type names itself and the type it must be.
    (
        "moi_exact request string",
        lambda: moi_exact("abc"),
        "^request must be a MoiRequest, got 'abc'$",
    ),
    (
        "moi_binned request string",
        lambda: moi_binned("abc", 4),
        "^request must be a MoiRequest, got 'abc'$",
    ),
    (
        "algebraic_shift request string",
        lambda: algebraic_shift("abc", (1, 0)),
        "^request must be a MoiRequest, got 'abc'$",
    ),
    (
        "moi_separable symbol string",
        lambda: moi_separable("abc", (H, H), (V,)),
        "^symbol must be a SeparableSymbol, got 'abc'$",
    ),
    (
        "perturbation_identity phi_spec string",
        lambda: perturbation_identity("abc", H, H, [H], [V]),
        "^phi_spec must be a MomentumSpec, got 'abc'$",
    ),
    (
        "SeparableSymbol terms string",
        lambda: SeparableSymbol("ab"),
        r"^separable terms must be \(weight, factors\) pairs, got 'ab'$",
    ),
    (
        "fit_loglog_slope string",
        lambda: fit_loglog_slope("ab", "cd"),
        "^slope fit x must be numeric, got 'ab'$",
    ),
    (
        "binned_eigenvalues string",
        lambda: binned_eigenvalues("abc", 4),
        "^eigenvalues to bin must be numeric, got 'abc'$",
    ),
    (
        "momentum_eval arity",
        lambda: momentum_eval(DD_SPEC, [0.1, 0.2, 0.3]),
        r"^symbol takes 2 arguments, got \(3,\)$",
    ),
):
    CALLS[name] = (call, message)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_input_raises_validation_error_naming_the_argument(name):
    call, message = CALLS[name]
    with pytest.raises(ValidationError, match=message):
        call()


def test_every_request_entry_of_moi_refuses_a_non_request():
    # Each public function of moi whose first parameter is a request checks
    # it first, so a new one is covered here without a row of its own.
    entries = [
        fn
        for name, fn in inspect.getmembers(moi, inspect.isfunction)
        if not name.startswith("_")
        and fn.__module__ == moi.__name__
        and next(iter(inspect.signature(fn).parameters), None) == "request"
    ]
    assert {"moi_exact", "moi_binned", "algebraic_shift"} <= {fn.__name__ for fn in entries}
    for fn in entries:
        rest = len(inspect.signature(fn).parameters) - 1
        with pytest.raises(ValidationError, match="^request must be a MoiRequest, got 'abc'$"):
            fn("abc", *[None] * rest)


def test_divided_difference_of_a_callable_kernel_needs_derivatives():
    # A CallableKernel has no derivatives, so no order >= 1.
    with pytest.raises(UnsupportedConfigError, match="model has 0"):
        DividedDifference(CallableKernel(lambda x: x), 1)


def test_a_bare_callable_is_not_a_model():
    # Every model argument is refused as a bare callable. Wrapped in a
    # CallableKernel it is a model: the forms refuse the orders it lacks,
    # and f(H), which needs none, takes it.
    dec = eigendecompose(H)
    refused = "^cannot use <ufunc 'absolute'> as a scalar kernel$"
    for call in (
        lambda f: FrechetForm(dec, 2.5, model=f),
        lambda f: model_delta_bracket(dec, f, (V,)),
        lambda f: apply_scalar_function(f, dec),
        lambda f: DividedDifference(f, 1),
        lambda f: divided_difference(f, [0.1, 0.2]),
        lambda f: MomentumSpec.from_divided_difference(f, 1),
        lambda f: SeparableSymbol(((1.0, (f, f)),)),
    ):
        with pytest.raises(ValidationError, match=refused):
            call(np.abs)
    with pytest.raises(UnsupportedConfigError, match=r"\(orders 1\.\.0\)$"):
        FrechetForm(dec, 2.5, model=CallableKernel(np.abs))
    with pytest.raises(UnsupportedConfigError, match="^CallableKernel does not expose derivative"):
        model_delta_bracket(dec, CallableKernel(np.abs), (V,))
    got = apply_scalar_function(CallableKernel(lambda x: np.abs(x) ** 2.5), dec).matrix
    assert np.array_equal(got, apply_scalar_function(PowerAbs(2.5), dec).matrix)


def test_near_tie_past_the_quadrature_cap_names_the_divided_difference():
    # A near tie at order 5 would need quadrature, which stops at order 4:
    # the refusal names the divided difference, its nodes and the cap.
    nodes = [0.1, 0.1 + 1e-9, 0.3, 0.4, 0.5, 0.6]
    with pytest.raises(UnsupportedConfigError) as caught:
        divided_difference(Polynomial((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)), nodes)
    assert str(caught.value) == (
        f"order-5 divided difference at nodes {nodes}: its nodes are too close "
        "for the table, and quadrature takes orders 1..4"
    )
