"""Command-line front end.

Subcommands: compute (measures on a state file), reproduce (the canned
experiments as CSV), gen-state, validate-witness. Exit codes: 0 success,
1 bad input, 2 solver failure. Every CSV starts with a comment recording
version, seed and a hash of the generating configuration, so identical
invocations are byte-identical.
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
    SDP_TOL,
    MeasureResult,
    concurrence_2q,
    e_nm_ppt,
    isotropic_e_n1,
    negativity,
    negativity_stack,
    rains_fidelity,
    rg_dps2,
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
    random_densities,
    random_density,
    random_pure,
    state_from_json,
    state_to_json,
    vc_ssr_state,
    w_ghz_mix,
)
from .witnesses import (
    DECOMPOSABLE_BIPARTITE,
    DECOMPOSABLE_MULTI,
    mc_product_check,
    validate_bounds,
    validate_decomposable,
    witness_from_json,
    witness_to_json,
)

# States per negativity_stack call in reproduce fig56. From a few dozen states
# on, the per-call overhead is spread thin; larger chunks only add memory.
FIG56_CHUNK = 64

# measure name -> (number of cuts it takes, None for one or more;
#                  fn(rho, cuts, n, m)): the compute choices and their dispatch
MEASURES = {
    "negativity": (1, lambda rho, cuts, n, m: negativity(rho, cuts[0])),
    "rg-ppt-closed": (1, lambda rho, cuts, n, m: rg_ppt_closed(rho, cuts[0])),
    "rg-ppt": (1, lambda rho, cuts, n, m: rg_ppt(rho, cuts[0])),
    "e-nm-ppt": (None, e_nm_ppt),
    "rr-ppt": (1, lambda rho, cuts, n, m: rr_ppt(rho, cuts[0])),
    "rains": (1, lambda rho, cuts, n, m: MeasureResult(rains_fidelity(rho, cuts[0]), SDP_TOL)),
    "concurrence": (0, lambda rho, cuts, n, m: MeasureResult(concurrence_2q(rho), 1e-12)),
    "ssr-nonlocality": (0, lambda rho, cuts, n, m: ssr_nonlocality(rho)),
    "rg-dps2": (1, lambda rho, cuts, n, m: rg_dps2(rho, cuts[0])),
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
    count, fn = MEASURES[args.measure]
    texts = args.cut or (["0"] if count != 0 else [])
    if count is not None and len(texts) != count:
        raise ValueError(f"measure {args.measure!r} takes {count} --cut, got {len(texts)}")
    rho = _load_state(args.state)
    res = fn(rho, [_parse_cut(c) for c in texts], args.n, args.m)
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
    kind = args.kind
    if kind == "bell":
        rho = max_entangled(args.d).density()
    elif kind == "isotropic":
        rho = isotropic(args.d, args.p)
    elif kind == "horodecki":
        rho = horodecki_3x3(args.a)
    elif kind == "w-ghz-mix":
        rho = w_ghz_mix(args.q)
    elif kind == "vc-ssr":
        rho = vc_ssr_state()
    elif kind in ("random", "random-pure"):
        shape = _parse_dims(args.dims)
        total = shape.total_dim
        seq = np.random.SeedSequence((args.seed, 0))
        if kind == "random":
            rho = random_density(total, seq, shape)
        else:
            rho = random_pure(total, seq, shape).density()
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    text = state_to_json(rho)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_validate_witness(args) -> int:
    with open(args.witness) as fh:
        w = witness_from_json(fh.read())
    if w.kind in (DECOMPOSABLE_BIPARTITE, DECOMPOSABLE_MULTI) and w.parts:
        rep = validate_decomposable(w)
    else:
        rep = validate_bounds(w)
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
        if pmin < -1e-6:
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

    negs, rgs = [], []
    for start in range(0, args.samples, FIG56_CHUNK):
        stop = min(start + FIG56_CHUNK, args.samples)
        seeds = [np.random.SeedSequence((args.seed, i)) for i in range(start, stop)]
        rhos = random_densities(shape.total_dim, seeds)
        neg, _, _, lam = negativity_stack(rhos, shape.local_dims, (0,))
        negs.append(neg)
        # abs: the negativity of a state with no negative eigenvalue is -0.0
        rgs.append(np.abs(neg) / lam)
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
    rows = []
    for q in qs:
        rho = w_ghz_mix(float(q))
        for n in ns:
            for site in range(3):
                val = e_nm_ppt(rho, [Cut([site])], n, 1.0).value
                rows.append((float(q), n, site, val))
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
    cut = Cut([0])
    rows = []
    for a in a_grid:
        base = horodecki_3x3(float(a)).mat
        for e in e_grid:
            mixed = float(e) * base + (1.0 - float(e)) * np.eye(9) / 9.0
            rho = DensityMatrix(mixed, shape)
            res = rg_dps2(rho, cut)
            tr_w = float(np.trace(res.witness.op.mat).real)
            # rescale the witness to the trace-D normalization; the value
            # in units of c1 c2 then feeds the formation bound
            rr_unit = res.value / tr_w if tr_w > 1e-9 else 0.0
            rr_unit = min(0.5, max(0.0, rr_unit))
            eof = eof_lower_rr(rr_unit).value
            rows.append((float(a), float(e), res.value, 9.0 * rr_unit, eof))
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
    ns = _parse_floats(args.n_list) if args.n_list else [
        0.5, 1.0, d - 1.0, float(d), 2.0 * d,
    ]
    ps = np.linspace(0.0, 1.0, args.p_count)
    config = {
        "command": "isotropic", "d": d, "p_count": args.p_count,
        "n_list": args.n_list or "default",
    }
    cut = Cut([0])
    rows = []
    worst = 0.0
    for n in ns:
        for p in ps:
            closed = isotropic_e_n1(d, float(p), n)
            sdp = e_nm_ppt(isotropic(d, float(p)), [cut], n, 1.0).value
            diff = abs(closed - sdp)
            worst = max(worst, diff)
            rows.append((d, float(p), n, closed, sdp, diff))
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
    pc.add_argument("--n", type=float, default=1.0)
    pc.add_argument("--m", type=float, default=1.0)
    pc.add_argument("--witness-out", help="write the optimal witness JSON here")
    pc.set_defaults(func=cmd_compute)

    pg = sub.add_parser("gen-state", help="write a state in the JSON format")
    pg.add_argument("--kind", required=True,
                    choices=("bell", "isotropic", "horodecki", "w-ghz-mix",
                             "vc-ssr", "random", "random-pure"))
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
