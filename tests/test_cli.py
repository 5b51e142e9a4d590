import json
import math

import numpy as np
import pytest

from entwit import __version__, cli, measures
from entwit.cli import main
from entwit.linalg import Cut, HermitianMatrix, SystemShape
from entwit.measures import e_nm_ppt, isotropic_e_n1, negativity, rg_from_negativity
from entwit.states import (
    horodecki_3x3,
    isotropic,
    max_entangled,
    random_density,
    random_pure,
    state_from_json,
    state_to_json,
    vc_ssr_state,
    w_ghz_mix,
)
from entwit.witnesses import (
    DECOMPOSABLE_BIPARTITE,
    SSR_DIAGONAL,
    Witness,
    witness_from_json,
    witness_to_json,
)


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def read_csv(path):
    """Header comment, column names, data rows, trailing comment dict."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# version=")
    cols = lines[1].split(",")
    rows = []
    trailing = {}
    for ln in lines[2:]:
        if ln.startswith("# "):
            k, v = ln[2:].split("=", 1)
            trailing[k] = v
        else:
            rows.append(ln.split(","))
    return cols, rows, trailing


def test_compute_on_bell(tmp_path, capsys):
    st = tmp_path / "bell.json"
    assert main(["gen-state", "--kind", "bell", "--d", "2", "--out", str(st)]) == 0
    rc, out = run(capsys, "compute", "--measure", "negativity", "--state", str(st))
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-10)
    rc, out = run(capsys, "compute", "--measure", "rg-ppt-closed", "--state", str(st))
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-10)
    rc, out = run(capsys, "compute", "--measure", "concurrence", "--state", str(st))
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-10)


def test_compute_ssr_on_vc_state(tmp_path, capsys):
    st = tmp_path / "vc.json"
    main(["gen-state", "--kind", "vc-ssr", "--out", str(st)])
    rc, out = run(capsys, "compute", "--measure", "ssr-nonlocality", "--state", str(st))
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-5)


def test_compute_writes_witness(tmp_path, capsys):
    st = tmp_path / "iso.json"
    wt = tmp_path / "w.json"
    main(["gen-state", "--kind", "isotropic", "--d", "3", "--p", "0.9",
          "--out", str(st)])
    rc, out = run(capsys, "compute", "--measure", "e-nm-ppt", "--state", str(st),
                  "--n", "2", "--m", "1", "--witness-out", str(wt))
    assert rc == 0
    doc = json.loads(out)
    # m = 1 and n/(d-1) = 1 tie; value is d F - 1
    f = 0.9 + 0.1 / 9
    assert doc["value"] == pytest.approx(3 * f - 1, abs=1e-5)
    assert wt.exists()
    rc, out = run(capsys, "validate-witness", "--witness", str(wt))
    assert rc == 0
    assert json.loads(out)["ok"] is True
    rc, out = run(capsys, "validate-witness", "--witness", str(wt),
                  "--mc-samples", "100", "--seed", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["product_min"] is not None
    assert doc["product_min"] > -1e-6


def test_validate_rejects_bound_violation(tmp_path, capsys):
    w = Witness(
        op=HermitianMatrix(np.diag([1.0, -2.0]), SystemShape([2])),
        kind=SSR_DIAGONAL,
        bounds=(1.0, 1.0),
    )
    path = tmp_path / "bad.json"
    path.write_text(witness_to_json(w))
    rc, out = run(capsys, "validate-witness", "--witness", str(path))
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["worst"] == pytest.approx(2.0, abs=1e-12)  # the diagonal entry -2


@pytest.mark.parametrize("parts", [None, {"P": None, "Q": []}])
def test_validate_recomposes_decomposable_witness_without_parts(tmp_path, capsys, parts):
    # W = -I declares no bounds, and no parts or empty ones: nothing
    # recomposes it, so it is rejected whether "parts" is null or not
    w = Witness(op=HermitianMatrix(-np.eye(4), SystemShape((2, 2))),
                kind=DECOMPOSABLE_BIPARTITE, parts=parts, cuts=[Cut([0])])
    path = tmp_path / "minus-identity.json"
    path.write_text(witness_to_json(w))
    assert json.loads(path.read_text())["parts"] == parts
    rc, out = run(capsys, "validate-witness", "--witness", str(path))
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["violations"] == [["recomposition", 1.0]]


def identity_doc() -> dict:
    """The JSON document of a valid decomposable witness, I = Q^Gamma with Q = I on 2x2."""
    q = HermitianMatrix(np.eye(4), SystemShape((2, 2)))
    w = Witness(op=q, kind=DECOMPOSABLE_BIPARTITE, parts={"P": None, "Q": [q]}, cuts=[Cut([0])])
    return json.loads(witness_to_json(w))


def test_identity_doc_is_a_valid_witness(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(identity_doc()))
    rc, out = run(capsys, "validate-witness", "--witness", str(path))
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_validate_rejects_a_q_beyond_the_last_cut(tmp_path, capsys):
    # op = I with one cut and Q = [I, -5 I]: the first Q recomposes op, the
    # second has no cut to be transposed on
    doc = identity_doc()
    doc["parts"]["Q"].append({**doc["parts"]["Q"][0],
                              "re": (-5.0 * np.eye(4)).tolist()})
    path = tmp_path / "extra-q.json"
    path.write_text(json.dumps(doc))
    rc, out = run(capsys, "validate-witness", "--witness", str(path))
    assert rc == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert ["Q count", 1.0] in report["violations"]
    assert ["recomposition", 0.0] in report["violations"]


@pytest.mark.parametrize("command,doc", [
    ("compute", [1, 2]),
    ("compute", {"re": [[1.0]], "im": [[0.0]], "dims": 1}),
    ("validate-witness", "x"),
    ("validate-witness", {"op": 3}),
    ("validate-witness", {"cuts": 5}),
    ("validate-witness", {"cuts": [[None]]}),
    ("validate-witness", {"parts": []}),
    ("validate-witness", {"parts": {"P": None, "Q": 5}}),
    ("validate-witness", {"n": [2.0]}),
])
def test_malformed_json_is_bad_input(tmp_path, capsys, command, doc):
    if command == "validate-witness" and isinstance(doc, dict):
        doc = {**identity_doc(), **doc}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--state" if command == "compute" else "--witness"
    extra = ["--measure", "negativity"] if command == "compute" else []
    assert main([command, *extra, flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_validate_rejects_ssr_negative_diagonal(tmp_path, capsys):
    # inside W <= I, but outside the SSR class W = I - S with S_ii <= 1
    w = Witness(
        op=HermitianMatrix(np.diag([-0.5, 1.0]), SystemShape([2])),
        kind=SSR_DIAGONAL,
        bounds=(math.inf, 1.0),
    )
    path = tmp_path / "bad.json"
    path.write_text(witness_to_json(w))
    rc, out = run(capsys, "validate-witness", "--witness", str(path))
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["violations"] == [["diagonal", 0.5], ["upper bound", 0.0]]


def test_validate_accepts_computed_ssr_witness(tmp_path, capsys):
    st = tmp_path / "r.json"
    wt = tmp_path / "w.json"
    main(["gen-state", "--kind", "random", "--dims", "3x3", "--seed", "5", "--out", str(st)])
    rc, _ = run(capsys, "compute", "--measure", "ssr-nonlocality", "--state", str(st),
                "--witness-out", str(wt))
    assert rc == 0
    rc, out = run(capsys, "validate-witness", "--witness", str(wt))
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [name for name, _ in doc["violations"]] == ["diagonal", "upper bound"]


def test_validate_checks_dps2_diagonal(tmp_path, capsys):
    # a computed DPS2 witness passes; W = -I meets the bound W <= I it
    # declares, but is negative on every product state: <ij|W|ij> = -1
    st = tmp_path / "r.json"
    wt = tmp_path / "w.json"
    main(["gen-state", "--kind", "random", "--dims", "2x3", "--seed", "5", "--out", str(st)])
    rc, _ = run(capsys, "compute", "--measure", "rg-dps2", "--state", str(st),
                "--witness-out", str(wt))
    assert rc == 0
    rc, out = run(capsys, "validate-witness", "--witness", str(wt))
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [name for name, _ in doc["violations"]] == ["diagonal", "upper bound"]
    w = witness_from_json(wt.read_text())
    w.op = HermitianMatrix(-np.eye(6), w.op.shape)
    bad = tmp_path / "minus-identity.json"
    bad.write_text(witness_to_json(w))
    rc, out = run(capsys, "validate-witness", "--witness", str(bad))
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["violations"] == [["diagonal", 1.0], ["upper bound", 0.0]]


def test_gen_state_random_round_trip(tmp_path, capsys):
    st = tmp_path / "r.json"
    rc = main(["gen-state", "--kind", "random", "--dims", "2x3", "--seed", "11",
               "--out", str(st)])
    assert rc == 0
    rho = state_from_json(st.read_text())
    assert rho.shape.local_dims == (2, 3)
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
    # same seed reproduces the state exactly
    st2 = tmp_path / "r2.json"
    main(["gen-state", "--kind", "random", "--dims", "2x3", "--seed", "11",
          "--out", str(st2)])
    assert st.read_text() == st2.read_text()


def test_fig56_deterministic_across_workers(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["reproduce", "fig56", "--dim", "2", "--samples", "30", "--seed", "9"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cols, rows, trailing = read_csv(a)
    assert cols == ["negativity", "rg_ppt"]
    assert len(rows) == 30
    for neg, rg in rows:
        assert 0.0 <= float(rg) <= 2.0 * float(neg) + 1e-10
    assert float(trailing["fraction_rg_le_2n"]) == 1.0


def test_fig56_decomposes_each_sample_once(tmp_path, monkeypatch):
    sizes = []
    eigh_array = measures._eigh_array

    def counting(mat):
        sizes.append(len(mat))
        return eigh_array(mat)

    monkeypatch.setattr(measures, "_eigh_array", counting)
    out = tmp_path / "f.csv"
    argv = ["reproduce", "fig56", "--samples", "50", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    assert sum(sizes) == 50


def per_state_csv(config, header, rows, trailing=None) -> bytes:
    """The CSV that reproduce writes for these rows and this configuration."""
    lines = [f"# version={__version__} seed={config.get('seed', '-')} "
             f"config={cli._config_hash(config)}",
             ",".join(header),
             *(",".join(cli._fmt(v) for v in row) for row in rows),
             *(f"# {k}={cli._fmt(v)}" for k, v in (trailing or {}).items())]
    return ("\n".join(lines) + "\n").encode()


def fig56_per_sample_csv(d1, d2, samples, seed):
    """The fig56 CSV composed state by state from the single-state API."""
    shape = SystemShape((d1, d2))
    rows, ranks = [], set()
    for i in range(samples):
        rho = random_density(d1 * d2, np.random.SeedSequence((seed, i)), shape)
        neg = negativity(rho, Cut([0]))
        rows.append((neg.value, rg_from_negativity(neg).value))
        ranks.add(round(np.trace(neg.witness.parts["Q"][0].mat).real))
    frac = float(np.mean([r <= 2.0 * n + 1e-12 for n, r in rows]))
    config = {"command": "fig56", "dim": d1, "dim2": d2, "samples": samples, "seed": seed}
    return per_state_csv(config, ["negativity", "rg_ppt"], rows,
                         {"fraction_rg_le_2n": frac}), ranks


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_fig56_chunks_match_per_sample_composition(tmp_path, dims, extra):
    samples = cli.FIG56_CHUNK + extra
    out = tmp_path / "f.csv"
    # 2**64 + 5 spans three 32-bit entropy words
    for seed in (5, 2**64 + 5):
        assert main(["reproduce", "fig56", "--dim", str(dims[0]), "--dim2", str(dims[1]),
                     "--samples", str(samples), "--seed", str(seed), "--out", str(out)]) == 0
        want, ranks = fig56_per_sample_csv(*dims, samples, seed)
        assert out.read_bytes() == want
        # each run mixes negative-eigenspace ranks k; 3x3 reaches k >= 2
        assert len(ranks) > 1
        assert max(ranks) >= (2 if dims == (3, 3) else 1)


def test_fig56_negative_seed_is_bad_input(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["reproduce", "fig56", "--samples", "5", "--seed", "-1",
                 "--out", str(out)]) == 1
    assert "expected non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_fig56_zero_dim2_is_bad_input(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["reproduce", "fig56", "--dim", "2", "--dim2", "0", "--seed", "1",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reproduce", "example1", "--q-count", "2", "--n-list", "nan"],
    ["reproduce", "example1", "--q-count", "2", "--n-list", "1,nan"],
    ["compute", "--measure", "e-nm-ppt", "--n", "nan"],
    ["compute", "--measure", "e-nm-ppt", "--m", "nan"],
])
def test_nan_box_is_bad_input(tmp_path, capsys, argv):
    st = tmp_path / "bell.json"
    assert main(["gen-state", "--kind", "bell", "--d", "2", "--out", str(st)]) == 0
    out = tmp_path / "o.csv"
    extra = ["--state", str(st)] if argv[0] == "compute" else ["--out", str(out)]
    assert main(argv + extra) == 1
    captured = capsys.readouterr()
    assert "error: need n >= 0 and m > 0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_isotropic_reproduction_matches_closed_form(tmp_path):
    out = tmp_path / "iso.csv"
    rc = main(["reproduce", "isotropic", "--d", "2", "--p-count", "5",
               "--n-list", "0.5,1,2", "--out", str(out)])
    assert rc == 0
    cols, rows, trailing = read_csv(out)
    assert cols == ["d", "p", "n", "closed", "sdp", "abs_diff"]
    assert len(rows) == 15
    assert float(trailing["max_abs_diff"]) <= 1e-5


def test_isotropic_d4_max_abs_diff_does_not_grow(tmp_path):
    # the SDP against the closed form at d = 4: the full rows gave
    # 4.144e-8, and solving on the real rows alone must not lose accuracy
    out = tmp_path / "iso4.csv"
    assert main(["reproduce", "isotropic", "--d", "4", "--p-count", "2", "--out", str(out)]) == 0
    _, rows, trailing = read_csv(out)
    assert len(rows) == 10
    assert float(trailing["max_abs_diff"]) <= 4.2e-8


def test_heisenberg_estimate_matches_witness_column(tmp_path):
    out = tmp_path / "h.csv"
    rc = main(["reproduce", "heisenberg", "--N", "4", "--periodic",
               "--beta-grid", "0:3:7", "--out", str(out)])
    assert rc == 0
    cols, rows, _ = read_csv(out)
    i_wv = cols.index("witness_value")
    i_est = cols.index("estimate")
    i_chi = cols.index("chi_exact")
    for row in rows:
        assert abs(float(row[i_wv]) - float(row[i_est])) <= 1e-10
    # chi columns are only defined away from beta = 0
    assert math.isnan(float(rows[0][i_chi]))
    assert not math.isnan(float(rows[1][i_chi]))
    assert math.isinf(float(rows[0][cols.index("T")]))


# rows of `reproduce heisenberg` as computed by the dense Kronecker path
HEISENBERG_PINNED = {
    ("--N", "4"): {
        "0.5": "0.5,2.0,-4.478892166183664,-4.163336342344337e-17,0.05986152077295823,"
               "0.05986152077295803,0.7404537162841909,1.2535179723027228",
        "20.0": "20.0,0.05,-6.46410161513775,-6.342453238258579e-34,0.308012701892219,"
                "0.30801270189221874,2.046172470256758e-21,36.905989232414996",
    },
    ("--N", "8", "--periodic", "--beta-grid", "0:20:9"): {
        "2.5": "2.5,0.4,-14.570749908562279,-2.862293735361732e-17,0.410671869285142,"
               "0.41067186928514243,0.10597829563107519,7.857708409531437",
        "20.0": "20.0,0.05,-14.604373635748724,2.28290105957941e-30,0.4127733522342943,"
                "0.41277335223429523,1.1080344675426712e-16,62.63750909500851",
    },
}


@pytest.mark.parametrize("flags", list(HEISENBERG_PINNED))
def test_heisenberg_rows_pinned(tmp_path, flags):
    out = tmp_path / "h.csv"
    assert main(["reproduce", "heisenberg", *flags, "--out", str(out)]) == 0
    _, rows, _ = read_csv(out)
    by_beta = {row[0]: row for row in rows}
    for beta, line in HEISENBERG_PINNED[flags].items():
        ref = line.split(",")
        got = by_beta[beta]
        assert got[:2] == ref[:2]
        for g, r in zip(got[2:], ref[2:], strict=True):
            assert abs(float(g) - float(r)) <= 1e-12 * (1 + abs(float(r))), (beta, g, r)


# a grid that starts with "-" needs the --flag=value form, or argparse
# reads it as an option and rejects the flag before any check runs
@pytest.mark.parametrize("flags", [("--J", "0"), ("--beta-grid=-1:1:3",), ("--B", "nan"),
                                   ("--J", "inf"), ("--beta-grid", "0:inf:3"),
                                   ("--beta-grid", "0:1"), ("--beta-grid", "0.1:0.9:-1")])
def test_heisenberg_bad_input_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "h.csv"
    assert main(["reproduce", "heisenberg", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Warning" not in err
    if flags[0] == "--beta-grid":
        # the grid parser's own message, not one from numpy or unpacking
        assert "grid" in err.splitlines()[-1]
    elif flags[0].startswith("--beta-grid="):
        # the grid parses; the negative beta is what is rejected
        assert err.splitlines()[-1] == "error: beta must be finite and nonnegative"
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_fig56_empty_run_writes_nothing(tmp_path, capsys, samples):
    out = tmp_path / "f.csv"
    assert main(["reproduce", "fig56", "--samples", samples, "--seed", "1",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["isotropic", "--p-count", "0"],
    ["example1", "--q-count", "0"],
    ["fig7q", "--a-grid", "0.1:0.9:0"],
    ["heisenberg", "--beta-grid", "0:20:0"],
    ["fig7q", "--e-grid", "0.1:0.9:-1"],
])
def test_empty_grid_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "g.csv"
    assert main(["reproduce", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "grid" in err
    assert "Warning" not in err
    assert not out.exists()
    assert main(["reproduce", *argv]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_example1_rows_and_values(tmp_path):
    out = tmp_path / "e1.csv"
    rc = main(["reproduce", "example1", "--q-count", "3", "--n-list", "1",
               "--out", str(out)])
    assert rc == 0
    cols, rows, _ = read_csv(out)
    assert cols == ["q", "n", "cut", "value"]
    assert len(rows) == 9
    assert all(float(r[3]) >= 0.0 for r in rows)


def test_example1_stacks_match_per_state_solves(tmp_path):
    # reproduce solves each (n, cut) over the whole q grid in one stacked run
    out = tmp_path / "e1.csv"
    assert main(["reproduce", "example1", "--q-count", "3", "--out", str(out)]) == 0
    rows = [(float(q), n, site, e_nm_ppt(w_ghz_mix(float(q)), [Cut([site])], n, 1.0).value)
            for q in np.linspace(0.0, 1.0, 3) for n in (1.0, 2.0, math.inf) for site in range(3)]
    config = {"command": "example1", "q_count": 3, "n_list": "1,2,inf", "seed": 0}
    assert out.read_bytes() == per_state_csv(config, ["q", "n", "cut", "value"], rows)


def test_isotropic_stacks_match_per_state_solves(tmp_path):
    out = tmp_path / "iso.csv"
    assert main(["reproduce", "isotropic", "--d", "3", "--p-count", "3",
                 "--out", str(out)]) == 0
    rows = []
    for n in (0.5, 1.0, 2.0, 3.0, 6.0):
        for p in np.linspace(0.0, 1.0, 3):
            closed = isotropic_e_n1(3, float(p), n)
            sdp = e_nm_ppt(isotropic(3, float(p)), [Cut([0])], n, 1.0).value
            rows.append((3, float(p), n, closed, sdp, abs(closed - sdp)))
    config = {"command": "isotropic", "d": 3, "p_count": 3, "n_list": "default"}
    want = per_state_csv(config, ["d", "p", "n", "closed", "sdp", "abs_diff"], rows,
                         {"max_abs_diff": max(r[-1] for r in rows)})
    assert out.read_bytes() == want


def test_example1_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["reproduce", "example1", "--q-count", "4", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig7q_columns(tmp_path):
    out = tmp_path / "f7.csv"
    rc = main(["reproduce", "fig7q", "--a-grid", "0.3:0.3:1",
               "--e-grid", "1.0:1.0:1", "--out", str(out)])
    assert rc == 0
    cols, rows, _ = read_csv(out)
    assert cols == ["a", "e", "dps2_value", "rr_lower", "eof_lower"]
    a, e, v, rr, eof = (float(x) for x in rows[0])
    assert v > 1e-4
    assert rr > 0.0
    assert eof > 0.0


def test_exit_codes(tmp_path, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["compute", "--measure", "bogus", "--state", "x"]) == 1
    capsys.readouterr()
    rc = main(["compute", "--measure", "negativity",
               "--state", str(tmp_path / "missing.json")])
    assert rc == 1
    capsys.readouterr()


def test_compute_cut_out_of_range_is_bad_input(tmp_path, capsys):
    st = tmp_path / "bell.json"
    assert main(["gen-state", "--kind", "bell", "--d", "2", "--out", str(st)]) == 0
    rc = main(["compute", "--measure", "negativity", "--state", str(st), "--cut", "5"])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "error: cut index out of range"


def random_3q_state(tmp_path):
    st = tmp_path / "r3.json"
    assert main(["gen-state", "--kind", "random", "--dims", "2x2x2", "--seed", "4",
                 "--out", str(st)]) == 0
    return str(st)


@pytest.mark.parametrize("measure,cuts", [
    ("negativity", ["0", "1"]),
    ("negativity", ["1", "0"]),
    ("rg-ppt-closed", ["0", "1"]),
    ("concurrence", ["0"]),
    ("ssr-nonlocality", ["0"]),
])
def test_compute_rejects_wrong_cut_count(tmp_path, capsys, measure, cuts):
    st = random_3q_state(tmp_path)
    argv = ["compute", "--measure", measure, "--state", st]
    for c in cuts:
        argv += ["--cut", c]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: measure {measure!r} takes ")


def test_compute_cut_count_defaults(tmp_path, capsys):
    st = random_3q_state(tmp_path)
    rc, out = run(capsys, "compute", "--measure", "negativity", "--state", st)
    assert rc == 0
    rc, out0 = run(capsys, "compute", "--measure", "negativity", "--state", st, "--cut", "0")
    assert rc == 0
    assert json.loads(out)["value"] == json.loads(out0)["value"]
    # e-nm-ppt takes one or more cuts
    rc, out = run(capsys, "compute", "--measure", "e-nm-ppt", "--state", st,
                  "--cut", "0", "--cut", "1", "--n", "inf")
    assert rc == 0
    assert json.loads(out)["value"] >= 0.0


@pytest.mark.parametrize("measure", [m for m, (_, box, _) in cli.MEASURES.items() if not box])
@pytest.mark.parametrize("flags", [("--n", "0"), ("--m", "7"), ("--n", "1", "--m", "1")])
def test_compute_rejects_box_bounds_off_e_nm_ppt(tmp_path, capsys, measure, flags):
    st = tmp_path / "s.json"
    assert main(["gen-state", "--kind", "random", "--dims", "2x2", "--seed", "5",
                 "--out", str(st)]) == 0
    assert main(["compute", "--measure", measure, "--state", str(st), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: measure {measure!r} takes no --n or --m\n"


def test_compute_e_nm_ppt_box_defaults_to_one(tmp_path, capsys):
    st = tmp_path / "s.json"
    assert main(["gen-state", "--kind", "random", "--dims", "2x2", "--seed", "5",
                 "--out", str(st)]) == 0
    base = ["compute", "--measure", "e-nm-ppt", "--state", str(st)]
    rc, out = run(capsys, *base)
    assert rc == 0
    assert run(capsys, *base, "--n", "1", "--m", "1") == (0, out)
    assert run(capsys, *base, "--n", "2")[1] != out


@pytest.mark.parametrize("name", ["isotropic", "example1"])
def test_empty_n_list_is_bad_input(tmp_path, capsys, name):
    out = tmp_path / "n.csv"
    assert main(["reproduce", name, "--n-list", "", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not out.exists()


def test_isotropic_default_n_list_config(tmp_path):
    out = tmp_path / "iso.csv"
    assert main(["reproduce", "isotropic", "--d", "2", "--p-count", "2", "--out", str(out)]) == 0
    config = {"command": "isotropic", "d": 2, "p_count": 2, "n_list": "default"}
    assert out.read_text().splitlines()[0].endswith(f"config={cli._config_hash(config)}")
    _, rows, _ = read_csv(out)
    assert sorted({float(row[2]) for row in rows}) == [0.5, 1.0, 2.0, 4.0]


# gen-state kind -> (its flags, the library constructor it runs)
GEN_STATE_CASES = {
    "bell": (["--d", "3"], lambda: max_entangled(3).density()),
    "isotropic": (["--d", "3", "--p", "0.4"], lambda: isotropic(3, 0.4)),
    "horodecki": (["--a", "0.3"], lambda: horodecki_3x3(0.3)),
    "w-ghz-mix": (["--q", "0.25"], lambda: w_ghz_mix(0.25)),
    "vc-ssr": ([], vc_ssr_state),
    "random": (["--dims", "2x3", "--seed", "7"],
               lambda: random_density(6, np.random.SeedSequence((7, 0)), SystemShape((2, 3)))),
    "random-pure": (["--dims", "3x2", "--seed", "8"],
                    lambda: random_pure(6, np.random.SeedSequence((8, 0)),
                                        SystemShape((3, 2))).density()),
}


@pytest.mark.parametrize("kind", list(GEN_STATE_CASES))
def test_gen_state_writes_its_library_state(tmp_path, capsys, kind):
    # the cases cover every kind the parser offers
    rc, usage = run(capsys, "gen-state", "--help")
    assert rc == 0 and "{" + ",".join(GEN_STATE_CASES) + "}" in usage
    flags, make = GEN_STATE_CASES[kind]
    want = state_to_json(make())
    st = tmp_path / "s.json"
    assert main(["gen-state", "--kind", kind, *flags, "--out", str(st)]) == 0
    assert st.read_text() == want
    assert run(capsys, "gen-state", "--kind", kind, *flags) == (0, want + "\n")
