"""Task execution: turn a parsed job configuration into report records.

Tasks run sequentially in declaration order (concurrency is allowed by the
interface contract but adds nothing at these problem sizes, and sequential
execution keeps the determinism argument trivial).  A task that raises is
reported as a per-task error record; the batch always runs to completion.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .brane import (
    admissible_d,
    fiber_brane,
    full_torus_brane,
    graph_brane,
    lift,
    twist_brane,
    validate_coisotropic,
    validate_lagrangian,
    verify_lift_complex,
    verify_lift_lagrangian,
    zero_section_brane,
)
from .config import BraneConfig, JobConfig, TaskSpec
from .errors import InadmissibleSpec, ValidationError
from .exact import RatMat
from .floer import DoublePoint, u_part_self, verify_main_diagram, verify_usub
from .lattice import cosets
from .theta import ThetaSpec, theta_dk, verify_identity_1, verify_identity_2
from .torus import Torus


@dataclass(frozen=True)
class ReportRecord:
    """One task outcome.  ``residuals`` holds (name, value, tolerance)
    triples and a record can only be a pass when every value is within its
    tolerance; exact checks enter as 0/1 counts against tolerance 0.
    ``seconds`` is wall time and is excluded from the byte-stable report
    format."""

    task: str
    kind: str
    status: str                # pass | fail | error
    residuals: tuple = ()
    values: tuple = ()
    detail: str = ""
    seconds: float = 0.0


# default acceptance grids; the tau values match the documented checks
_TAU_DEFAULT = (1j, 0.5 + 1j, -0.3 + 0.7j)
_Z_DEFAULT = (0j, 0.2 + 0j, 0.3 + 0.4j, -0.45 + 0.1j, 0.11 - 0.23j)
_UV_DEFAULT = ((0.1 + 0j, 0j), (0j, 0j), (0.2 + 0.1j, -0.1 + 0j),
               (0.3 + 0j, 0.3 + 0j), (-0.2j, 0.15 + 0j))

_RESIDUAL_TOL = {"identity1": 1e-10, "identity2": 1e-10,
                 "usub": 1e-8, "diagram": 1e-8}


def _cval(x):
    """Normalize a reported value to JSON-ready deterministic data."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, RatMat):
        return " ; ".join(" ".join(str(x[i, j]) for j in range(x.ncols))
                          for i in range(x.nrows))
    if isinstance(x, (tuple, list)):
        return [_cval(c) for c in x]
    return x


def build_torus(config: JobConfig) -> Torus:
    t = config.torus
    if t.tau is not None:
        return Torus.from_period(*t.tau)
    return Torus(t.omega, t.b)


def build_brane(torus: Torus, bc: BraneConfig):
    if bc.kind == "graph":
        if bc.d.is_zero():
            # slope zero is the zero section, which the admissibility gate
            # (positive definite Im(tau) D) would otherwise reject
            return zero_section_brane(torus, phi=bc.phi, xi_lin=bc.xi)
        return graph_brane(torus, bc.d, xi_lin=bc.xi, phi=bc.phi)
    if bc.kind == "fiber":
        return fiber_brane(torus, bc.position, phi=bc.phi)
    return full_torus_brane(torus, bc.n_mat, phi=bc.phi, xi_lin=bc.xi,
                            offset=bc.offset)


def _named_brane(config: JobConfig, spec: TaskSpec):
    name = spec.get("brane")
    if name is None:
        raise ValidationError(f"task {spec.kind}: a brane name is required")
    return config.brane(name)


def _period(config: JobConfig):
    if config.torus.tau is None:
        raise ValidationError("this task needs a split torus declared by tau")
    return config.torus.tau


def _tolerance(config: JobConfig, spec: TaskSpec) -> float:
    default = _RESIDUAL_TOL.get(spec.kind, 0.0)
    return spec.get("tolerance", default)


def _theta_spec(config: JobConfig, spec: TaskSpec, char: str = "k"):
    """The task's series datum: d (default I), the characteristic under
    the key ``char`` and xi (default 0), with the [numeric] tol and
    max_radius."""
    tau_re, tau_im = _period(config)
    n = config.torus.n
    return ThetaSpec(tau_re, tau_im, _slope(config, spec),
                     spec.get(char, (0,) * n), spec.get("xi", (0,) * n),
                     config.numeric.tol, config.numeric.max_radius)


def _slope(config: JobConfig, spec: TaskSpec) -> RatMat:
    d = spec.get("d")
    return RatMat.identity(config.torus.n) if d is None else d


def _slope_spec(config: JobConfig, spec: TaskSpec, char: str = "k"):
    """:func:`_theta_spec` for the tasks that take D as a slope, as graph
    branes do.  The spec checks D once; when it rejects the job, D is
    checked again, so that a fault of D is reported as InadmissibleD."""
    try:
        return _theta_spec(config, spec, char)
    except InadmissibleSpec:
        admissible_d(*_period(config), _slope(config, spec))
        raise


def _numeric_kwargs(config: JobConfig):
    num = config.numeric
    return dict(tol=num.tol, context=num.precision, max_radius=num.max_radius)


def _complexes(pairs):
    return [complex(float(re), float(im)) for re, im in pairs]


def _task_rows(spec: TaskSpec, key: str, seed: int, width: int):
    """The rows under ``key``, or five seeded rows of ``width`` rationals.
    The parser checks a config's rows; this check is for library callers."""
    rows = spec.get(key)
    if rows is None:
        rng = random.Random(seed)
        return [[Fraction(rng.randint(-9, 9), 20) for _ in range(width)]
                for _ in range(5)]
    for row in rows:
        if len(row) != width:
            raise ValidationError(f"task {spec.kind}: {key} rows must have "
                                  f"{width} entries, got {len(row)}")
    return rows


# --- the individual tasks -------------------------------------------------------


def _task_validate(config, spec):
    bc = _named_brane(config, spec)
    brane = build_brane(build_torus(config), bc)
    if bc.kind == "coisotropic":
        report = validate_coisotropic(brane)
    else:
        report = validate_lagrangian(brane)
    residuals = [("violations", float(len(report.failures)), 0.0)]
    values = [("brane", bc.name), ("brane_kind", bc.kind),
              ("xi", list(brane.xi_lin)), ("failures", list(report.failures))]
    return residuals, values


def _task_lift(config, spec):
    bc = _named_brane(config, spec)
    lifted = lift(build_brane(build_torus(config), bc))
    ok_lag = verify_lift_lagrangian(lifted)
    ok_cx = verify_lift_complex(lifted)
    residuals = [("lift_lagrangian", 0.0 if ok_lag else 1.0, 0.0),
                 ("lift_complex", 0.0 if ok_cx else 1.0, 0.0)]
    values = [("brane", bc.name), ("xi", list(lifted.xi_lin)),
              ("ambient_dim", lifted.torus.dim), ("rank", lifted.dim)]
    return residuals, values


def _task_theta(config, spec):
    tspec = _theta_spec(config, spec)
    z = spec.get("z", ((Fraction(0), Fraction(0)),) * tspec.n)
    got = theta_dk(tspec, list(z), context=config.numeric.precision)
    values = [("value", complex(got)), ("d", tspec.d_mat),
              ("k", list(tspec.char)), ("xi", list(tspec.xi_lin)),
              ("radius", got.certificate.radius),
              ("tail_bound", float(got.certificate.tail_bound))]
    return [], values


def _task_identity1(config, spec):
    taus = spec.get("tau_grid")
    zs = spec.get("z_grid")
    taus = _complexes(taus) if taus is not None else list(_TAU_DEFAULT)
    zs = _complexes(zs) if zs is not None else list(_Z_DEFAULT)
    kwargs = _numeric_kwargs(config)
    worst = max(verify_identity_1(tau, z, **kwargs)
                for tau in taus for z in zs)
    tol = _tolerance(config, spec)
    return [("identity1", worst, tol)], [("samples", len(taus) * len(zs))]


def _task_identity2(config, spec):
    taus = spec.get("tau_grid")
    taus = _complexes(taus) if taus is not None else list(_TAU_DEFAULT)
    uv = spec.get("uv_grid")
    if uv is not None:
        pairs = [tuple(_complexes(row)) for row in uv]
    else:
        pairs = list(_UV_DEFAULT)
    kwargs = _numeric_kwargs(config)
    worst = max(verify_identity_2(tau, u, v, **kwargs)
                for tau in taus for (u, v) in pairs)
    tol = _tolerance(config, spec)
    return [("identity2", worst, tol)], [("samples", len(taus) * len(pairs))]


def _task_usub(config, spec):
    _period(config)  # a torus without tau fails before the rows are read
    n = config.torus.n
    points = [DoublePoint(row[:n], row[n:2 * n], row[2 * n:3 * n], row[3 * n:])
              for row in _task_rows(spec, "points", 2026, 4 * n)]
    tspec = _slope_spec(config, spec)
    worst = verify_usub(tspec, points, context=config.numeric.precision)
    tol = _tolerance(config, spec)
    values = [("d", tspec.d_mat), ("k", list(tspec.char)),
              ("xi", list(tspec.xi_lin)), ("points", len(points))]
    return [("factorization", worst, tol)], values


def _task_diagram(config, spec):
    _period(config)  # a torus without tau fails before the rows are read
    n = config.torus.n
    d_mat = spec.get("d")
    if d_mat is None:
        raise ValidationError("task diagram: the slope matrix d is required")
    k_list = spec.get("k_list")
    if k_list is None:
        k_list = cosets(d_mat)
    grid = [(row[:n], row[n:]) for row in _task_rows(spec, "grid", 5409, 2 * n)]
    tspec = _slope_spec(config, spec, "reference_char")
    report = verify_main_diagram(tspec, k_list, grid,
                                 context=config.numeric.precision)
    tol = _tolerance(config, spec)
    residuals = [("constancy", report.spread, tol),
                 ("prediction", report.max_error, tol)]
    values = [("d", d_mat), ("xi", list(tspec.xi_lin)),
              ("predicted", report.predicted), ("rho", list(report.rho)),
              ("skipped", report.skipped)]
    return residuals, values


def _task_upart_self(config, spec):
    bc = _named_brane(config, spec)
    brane = lift(build_brane(build_torus(config), bc))
    result = u_part_self(brane)
    values = [("brane", bc.name), ("dims", list(result.dims)),
              ("complex_dim", len(result.dims) - 1),
              ("xi", list(brane.xi_lin))]
    residuals = []
    expected = spec.get("expected")
    if expected is not None:
        match = tuple(expected) == result.dims
        residuals.append(("dimensions", 0.0 if match else 1.0, 0.0))
        values.append(("expected", list(expected)))
    return residuals, values


def _task_twist(config, spec):
    bc = _named_brane(config, spec)
    lifted = lift(build_brane(build_torus(config), bc))
    twisted = twist_brane(lifted)
    report = validate_lagrangian(twisted)
    residuals = [("lagrangian_after_twist", float(len(report.failures)), 0.0)]
    values = [("brane", bc.name), ("xi", list(twisted.xi_lin)),
              ("background_sign", twisted.torus.sigma_sign),
              ("failures", list(report.failures))]
    return residuals, values


_TASKS = {
    "validate": _task_validate,
    "lift": _task_lift,
    "theta": _task_theta,
    "identity1": _task_identity1,
    "identity2": _task_identity2,
    "usub": _task_usub,
    "diagram": _task_diagram,
    "upart-self": _task_upart_self,
    "twist": _task_twist,
}


def run(config: JobConfig) -> list:
    """Execute every task and return records in declaration order."""
    records = []
    for spec in config.tasks:
        start = time.perf_counter()
        try:
            residuals, values = _TASKS[spec.kind](config, spec)
            status = "pass" if all(v <= t for _, v, t in residuals) else "fail"
            rec = ReportRecord(
                spec.id, spec.kind, status,
                tuple(residuals),
                tuple((key, _cval(v)) for key, v in values),
                seconds=time.perf_counter() - start,
            )
        except Exception as exc:  # per-task error record; never abort the batch
            rec = ReportRecord(
                spec.id, spec.kind, "error",
                detail=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - start,
            )
        records.append(rec)
    return records
