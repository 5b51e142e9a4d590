import json
import math

import numpy as np
import pytest

from entwit import __version__, cli, measures
from entwit.cli import main
from entwit.linalg import Cut, HermitianMatrix, SystemShape
from entwit.measures import negativity, rg_from_negativity
from entwit.states import random_density, state_from_json
from entwit.witnesses import SSR_DIAGONAL, Witness, witness_to_json


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
    assert doc["worst"] == pytest.approx(1.0, abs=1e-12)


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
    lines = [f"# version={__version__} seed={seed} config={cli._config_hash(config)}",
             "negativity,rg_ppt",
             *(f"{cli._fmt(n)},{cli._fmt(r)}" for n, r in rows),
             f"# fraction_rg_le_2n={cli._fmt(frac)}"]
    return ("\n".join(lines) + "\n").encode(), ranks


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_fig56_chunks_match_per_sample_composition(tmp_path, dims, extra):
    samples, seed = cli.FIG56_CHUNK + extra, 5
    out = tmp_path / "f.csv"
    assert main(["reproduce", "fig56", "--dim", str(dims[0]), "--dim2", str(dims[1]),
                 "--samples", str(samples), "--seed", str(seed), "--out", str(out)]) == 0
    want, ranks = fig56_per_sample_csv(*dims, samples, seed)
    assert out.read_bytes() == want
    # each run mixes negative-eigenspace ranks k; 3x3 reaches k >= 2
    assert len(ranks) > 1
    assert max(ranks) >= (2 if dims == (3, 3) else 1)


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


@pytest.mark.parametrize("flags", [("--J", "0"), ("--beta-grid", "-1:1:3"), ("--B", "nan"),
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
