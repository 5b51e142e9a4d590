"""Command-line front end.

Subcommands: compute (measures on a state file), reproduce (the canned
experiments as CSV), gen-state, validate-witness. Exit codes: 0 success,
1 bad input, 2 solver failure. Every CSV starts with a comment recording
version, seed and a hash of the generating configuration, so identical
invocations are byte-identical at a fixed BLAS thread count (threaded BLAS
rounds the SDP iterates differently: `reproduce example1` with one and with
two threads differs in 66 of 99 rows, by at most 7.9e-11).
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import eof_lower_rr
from .linalg import Cut, SystemShape
from .measures import (
    CLOSED_FORM_TOL,
    MeasureResult,
    _closed_rg,
    _lambda_max,
    concurrence_2q,
    e_nm_ppt,
    e_nm_ppt_stack,
    isotropic_e_n1,
    negativity,
    negativity_stack,
    rains_fidelity,
    rg_dps2,
    rg_dps2_stack,
    rg_ppt,
    rg_ppt_closed,
    rr_ppt,
    ssr_nonlocality,
)
from .sdp import SolverError
from .spin import chain_spectrum, thermal_table
from .states import (
    DensityMatrix,
    horodecki_3x3,
    isotropic,
    max_entangled,
    random_density,
    random_pure,
    state_from_json,
    state_to_json,
    stream_densities,
    stream_seeds,
    vc_ssr_state,
    w_ghz_mix,
)
from .witnesses import (
    PRODUCT_ATOL,
    mc_product_check,
    validate,
    witness_from_json,
    witness_to_json,
)

# States per negativity_stack call in reproduce fig56. From a few dozen states
# on, the per-call overhead is spread thin; larger chunks only add memory.
FIG56_CHUNK = 64

# measure name -> (number of cuts it takes, None for one or more;
#                  whether it takes the box bounds --n and --m;
#                  fn(rho, cuts, **box)): the compute choices and their dispatch
MEASURES = {
    "negativity": (1, False, lambda rho, cuts: negativity(rho, cuts[0])),
    "rg-ppt-closed": (1, False, lambda rho, cuts: rg_ppt_closed(rho, cuts[0])),
    "rg-ppt": (1, False, lambda rho, cuts: rg_ppt(rho, cuts[0])),
    "e-nm-ppt": (None, True, lambda rho, cuts, n=1.0, m=1.0: e_nm_ppt(rho, cuts, n, m)),
    "rr-ppt": (1, False, lambda rho, cuts: rr_ppt(rho, cuts[0])),
    "rains": (1, False, lambda rho, cuts: rains_fidelity(rho, cuts[0])),
    "concurrence": (0, False, lambda rho, cuts: MeasureResult(concurrence_2q(rho),
                                                              CLOSED_FORM_TOL)),
    "ssr-nonlocality": (0, False, lambda rho, cuts: ssr_nonlocality(rho)),
    "rg-dps2": (1, False, lambda rho, cuts: rg_dps2(rho, cuts[0])),
}


def _seeded(args) -> tuple:
    """(total dim, seed, shape) of --dims and --seed, for the random kinds."""
    shape = _parse_dims(args.dims)
    return shape.total_dim, np.random.SeedSequence((args.seed, 0)), shape


# state kind -> fn(args) giving its DensityMatrix: the gen-state choices and
# their dispatch
STATE_KINDS = {
    "bell": lambda args: max_entangled(args.d).density(),
    "isotropic": lambda args: isotropic(args.d, args.p),
    "horodecki": lambda args: horodecki_3x3(args.a),
    "w-ghz-mix": lambda args: w_ghz_mix(args.q),
    "vc-ssr": lambda args: vc_ssr_state(),
    "random": lambda args: random_density(*_seeded(args)),
    "random-pure": lambda args: random_pure(*_seeded(args)).density(),
}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _emit_csv(out, config, header, rows, trailing=None) -> None:
    if not rows:
        raise ValueError("the grid is empty, so there are no rows to write")
    lines = [
        f"# version={__version__} seed={config.get('seed', '-')} "
        f"config={_config_hash(config)}"
    ]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    if trailing:
        lines.extend(f"# {k}={_fmt(v)}" for k, v in trailing.items())
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_cut(text: str) -> Cut:
    return Cut([int(tok) for tok in text.split(",")])


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:count, evenly spaced; finite bounds and count >= 1."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(f"grid {text!r} is not start:stop:count") from None
    if not (math.isfinite(start) and math.isfinite(stop) and count >= 1):
        raise ValueError(f"grid {text!r} needs finite bounds and a count of at least 1")
    return np.linspace(start, stop, count)


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.split(",")]


def _parse_dims(text: str) -> SystemShape:
    return SystemShape([int(tok) for tok in text.split("x")])


def _load_state(path: str) -> DensityMatrix:
    with open(path) as fh:
        return state_from_json(fh.read())


def cmd_compute(args) -> int:
    count, takes_box, fn = MEASURES[args.measure]
    texts = args.cut or (["0"] if count != 0 else [])
    if count is not None and len(texts) != count:
        raise ValueError(f"measure {args.measure!r} takes {count} --cut, got {len(texts)}")
    box = {k: v for k, v in (("n", args.n), ("m", args.m)) if v is not None}
    if box and not takes_box:
        raise ValueError(f"measure {args.measure!r} takes no --n or --m")
    rho = _load_state(args.state)
    res = fn(rho, [_parse_cut(c) for c in texts], **box)
    doc = {"measure": args.measure, "value": res.value, "tolerance": res.tolerance}
    if args.witness_out:
        if res.witness is None:
            raise ValueError(f"measure {args.measure!r} returns no witness")
        with open(args.witness_out, "w") as fh:
            fh.write(witness_to_json(res.witness))
        doc["witness"] = args.witness_out
    print(json.dumps(doc))
    return 0


def cmd_gen_state(args) -> int:
    text = state_to_json(STATE_KINDS[args.kind](args))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_validate_witness(args) -> int:
    with open(args.witness) as fh:
        w = witness_from_json(fh.read())
    rep = validate(w)
    doc = {
        "kind": w.kind,
        "ok": bool(rep.ok),
        "worst": rep.worst(),
        "violations": [[name, v] for name, v in rep.violations],
        "product_min": None,
    }
    if args.mc_samples > 0:
        pmin = mc_product_check(w, args.mc_samples, args.seed)
        doc["product_min"] = pmin
        if pmin < -PRODUCT_ATOL:
            doc["ok"] = False
    print(json.dumps(doc))
    return 0 if doc["ok"] else 1


def cmd_fig56(args) -> int:
    if args.samples < 1:
        raise ValueError("need --samples >= 1")
    d1 = args.dim
    d2 = args.dim if args.dim2 is None else args.dim2
    shape = SystemShape((d1, d2))
    config = {
        "command": "fig56", "dim": d1, "dim2": d2,
        "samples": args.samples, "seed": args.seed,
    }

    seeds = stream_seeds(args.seed, 0, args.samples)
    negs, rgs = [], []
    for start in range(0, args.samples, FIG56_CHUNK):
        rhos = stream_densities(shape.total_dim, seeds[start:start + FIG56_CHUNK])
        neg, _, proj_pt = negativity_stack(rhos, shape.local_dims, (0,))
        negs.append(neg)
        rgs.append(_closed_rg(neg, _lambda_max(proj_pt, neg)))
    neg, rg = np.concatenate(negs), np.concatenate(rgs)
    frac = float(np.mean(rg <= 2.0 * neg + 1e-12))
    _emit_csv(args.out, config, ["negativity", "rg_ppt"], list(zip(neg.tolist(), rg.tolist())),
              trailing={"fraction_rg_le_2n": frac})
    return 0


def cmd_example1(args) -> int:
    qs = np.linspace(0.0, 1.0, args.q_count)
    ns = _parse_floats(args.n_list)
    config = {
        "command": "example1", "q_count": args.q_count,
        "n_list": args.n_list, "seed": args.seed,
    }
    rhos = np.array([w_ghz_mix(float(q)).mat for q in qs])
    # one build and solver run per (n, cut) over the whole q grid; a cut's
    # finite n could share one stack, but at 22 problems on the m = 72 real
    # rows its peak memory is 3 % above that of two stacks of 11 (VmHWM
    # 40.4-40.6 against 39.2-39.3 MB), against 1.7 ms per build
    values = {(n, site): e_nm_ppt_stack(rhos, SystemShape((2, 2, 2)), [Cut([site])], n, 1.0)
              for n in ns for site in range(3)}
    rows = [(float(q), n, site, values[n, site][i].value)
            for i, q in enumerate(qs) for n in ns for site in range(3)]
    _emit_csv(args.out, config, ["q", "n", "cut", "value"], rows)
    return 0


def cmd_fig7q(args) -> int:
    a_grid = _parse_grid(args.a_grid)
    e_grid = _parse_grid(args.e_grid)
    config = {
        "command": "fig7q", "a_grid": args.a_grid,
        "e_grid": args.e_grid, "seed": args.seed,
    }
    shape = SystemShape((3, 3))
    grid = [(float(a), float(e)) for a in a_grid for e in e_grid]
    rhos = [DensityMatrix(e * horodecki_3x3(a).mat + (1.0 - e) * np.eye(9) / 9.0, shape).mat
            for a, e in grid]
    rows = []
    # one build and solver run for the whole grid
    for (a, e), res in zip(grid, rg_dps2_stack(rhos, shape, Cut([0]))):
        tr_w = float(np.trace(res.witness.op.mat).real)
        # rescale the witness to the trace-D normalization; the value
        # in units of c1 c2 then feeds the formation bound
        rr_unit = min(0.5, max(0.0, res.value / tr_w if tr_w > 1e-9 else 0.0))
        rows.append((a, e, res.value, 9.0 * rr_unit, eof_lower_rr(rr_unit).value))
    _emit_csv(args.out, config,
              ["a", "e", "dps2_value", "rr_lower", "eof_lower"], rows)
    return 0


def cmd_heisenberg(args) -> int:
    betas = _parse_grid(args.beta_grid)
    config = {
        "command": "heisenberg", "N": args.N, "J": args.J, "B": args.B,
        "periodic": args.periodic, "beta_grid": args.beta_grid,
    }
    c, m = chain_spectrum(args.N, args.periodic)
    table = thermal_table(c, m, args.J, args.B, betas)
    columns = (table.energy, table.magnetization, table.witness_value,
               table.estimate, table.chi_exact, table.chi_witness_form)
    rows = []
    for k, beta in enumerate(betas):
        u, mz, wv, est, chi_exact, chi_wf = (float(col[k]) for col in columns)
        if not (args.B == 0.0 and beta > 0.0):
            chi_exact, chi_wf = math.nan, math.nan
        t = math.inf if beta == 0.0 else 1.0 / float(beta)
        rows.append((float(beta), t, u, mz, wv, est, chi_exact, chi_wf))
    _emit_csv(args.out, config,
              ["beta", "T", "U", "M", "witness_value", "estimate",
               "chi_exact", "chi_witness_form"], rows)
    return 0


def cmd_isotropic(args) -> int:
    d = args.d
    ns = _parse_floats(args.n_list) if args.n_list is not None else [
        0.5, 1.0, d - 1.0, float(d), 2.0 * d,
    ]
    ps = np.linspace(0.0, 1.0, args.p_count)
    config = {
        "command": "isotropic", "d": d, "p_count": args.p_count,
        "n_list": args.n_list or "default",
    }
    grid = [(n, float(p)) for n in ns for p in ps]
    rhos = [isotropic(d, p).mat for _, p in grid]
    rows = []
    worst = 0.0
    # one call for the whole (n, p) grid: one build and solver run for its
    # finite n and one for its infinite n
    sdps = e_nm_ppt_stack(rhos, SystemShape((d, d)), [Cut([0])], [n for n, _ in grid], 1.0)
    for (n, p), res in zip(grid, sdps):
        closed = isotropic_e_n1(d, p, n)
        diff = abs(closed - res.value)
        worst = max(worst, diff)
        rows.append((d, p, n, closed, res.value, diff))
    _emit_csv(args.out, config, ["d", "p", "n", "closed", "sdp", "abs_diff"],
              rows, trailing={"max_abs_diff": worst})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwit",
        description="Witness-based entanglement measures and reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="run one measure on a state file")
    pc.add_argument("--measure", required=True, choices=MEASURES)
    pc.add_argument("--state", required=True, help="state JSON file")
    pc.add_argument("--cut", action="append",
                    help="comma-separated party indices; repeatable")
    pc.add_argument("--n", type=float, help="e-nm-ppt only; default 1")
    pc.add_argument("--m", type=float, help="e-nm-ppt only; default 1")
    pc.add_argument("--witness-out", help="write the optimal witness JSON here")
    pc.set_defaults(func=cmd_compute)

    pg = sub.add_parser("gen-state", help="write a state in the JSON format")
    pg.add_argument("--kind", required=True, choices=STATE_KINDS)
    pg.add_argument("--d", type=int, default=2)
    pg.add_argument("--p", type=float, default=1.0)
    pg.add_argument("--a", type=float, default=0.5)
    pg.add_argument("--q", type=float, default=0.5)
    pg.add_argument("--dims", default="2x2", help="local dims like 2x3")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_gen_state)

    pv = sub.add_parser("validate-witness", help="check a witness JSON file")
    pv.add_argument("--witness", required=True)
    pv.add_argument("--mc-samples", type=int, default=0,
                    help="also run the product-state refinement")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_validate_witness)

    pr = sub.add_parser("reproduce", help="run a canned experiment to CSV")
    rsub = pr.add_subparsers(dest="name", required=True)

    p56 = rsub.add_parser("fig56")
    p56.add_argument("--dim", type=int, default=2)
    p56.add_argument("--dim2", type=int, default=None)
    p56.add_argument("--samples", type=int, default=1000)
    p56.add_argument("--seed", type=int, required=True)
    p56.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    p56.add_argument("--out")
    p56.set_defaults(func=cmd_fig56)

    pe1 = rsub.add_parser("example1")
    pe1.add_argument("--q-count", type=int, default=11)
    pe1.add_argument("--n-list", default="1,2,inf")
    pe1.add_argument("--seed", type=int, default=0)
    pe1.add_argument("--out")
    pe1.set_defaults(func=cmd_example1)

    p7 = rsub.add_parser("fig7q")
    p7.add_argument("--a-grid", default="0.1:0.9:9")
    p7.add_argument("--e-grid", default="0.9:1.0:3")
    p7.add_argument("--seed", type=int, default=0)
    p7.add_argument("--out")
    p7.set_defaults(func=cmd_fig7q)

    ph = rsub.add_parser("heisenberg")
    ph.add_argument("--N", type=int, default=4)
    ph.add_argument("--J", type=float, default=1.0)
    ph.add_argument("--B", type=float, default=0.0)
    ph.add_argument("--periodic", action="store_true")
    ph.add_argument("--beta-grid", default="0:20:41")
    ph.add_argument("--out")
    ph.set_defaults(func=cmd_heisenberg)

    pi = rsub.add_parser("isotropic")
    pi.add_argument("--d", type=int, default=3)
    pi.add_argument("--p-count", type=int, default=20)
    pi.add_argument("--n-list", default=None,
                    help="defaults to 0.5,1,d-1,d,2d")
    pi.add_argument("--out")
    pi.set_defaults(func=cmd_isotropic)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
