import hashlib
import json
import subprocess
import sys

import pytest

from beattylab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pairs_row(capsys):
    code, out, err = run_cli(capsys, "pairs", "--alpha", "sqrt:2",
                             "--beta", "rat:0/1", "--x", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha_spec,beta_spec,x,count,statistic"
    assert lines[1].startswith("sqrt:2,rat:0/1,100,7,")
    assert json.loads(err.splitlines()[-1])["outputs"] == ["stdout"]


def test_pairs_list(capsys):
    code, out, err = run_cli(capsys, "pairs", "--alpha", "sqrt:2", "--x", "10",
                             "--list")
    assert code == 0
    assert out.splitlines()[0] == "p,q"
    assert out.splitlines()[1] == "2,2"
    assert "count: 2" in err  # (2,2) and (5,7)


def test_pairs_at_x_2(capsys):
    # the table of limit 2 holds the one pair p = 2, q = floor(2*sqrt 2) = 2
    code, out, _ = run_cli(capsys, "pairs", "--alpha", "sqrt:2", "--x", "2")
    assert code == 0
    assert out.splitlines()[1] == "sqrt:2,rat:0/1,2,1,1.0"


_CF_E = ("cf:0,1,2,1,1,4,1,1,6,1,1,8,1,1,10,1,1,12,1,1,14,1,1,16,1,1,18,1,1,20,"
         "1,1,22,1,1,24,1,1,26,1")  # a prefix of e - 2
_GOLDEN = {  # sha256 of whole CSV bodies: refactors keep them byte-identical
    "pairs": (["pairs", "--alpha", "sqrt:2", "--x", "10000"],
              "36310d8c12e171965a8c2fa1cd007b13fb3936b306cb777a357d54c5157c7dcf"),
    "pairs_cf_beta": (["pairs", "--alpha", "sqrt:2", "--beta", _CF_E, "--x", "10000"],
                      "1a6cbb05609a499e8a2b02253e1503dab40ae7a580b650a33ba60f4a2d7f1eee"),
    "pairs_list": (["pairs", "--alpha", "sqrt:2", "--x", "10000", "--list"],
                   "e758f2332b739d3d0a199bd7b8c2014d453dd4a84bb4d773d902c989038e468f"),
    "scan": (["scan", "--c1", "1", "--c2", "2", "--beta", "rat:0/1", "--x-grid", "1000:5000",
              "--samples", "10", "--seed", "123", "--pin", "sqrt:2"],
             "3e114c9d46daa4e72aeb70a4f0ee30f9c92c08552744512a23ea6febe629252e"),
    "integral": (["integral", "--c1", "1", "--c2", "2", "--x", "1000"],
                 "ac1371ba8490e2412b8ef3445a447b5b9f751083cbcc370295c455c9dd1b7312"),
    "integral_mc": (["integral", "--c1", "1", "--c2", "2", "--x", "1000", "--mc-samples", "100"],
                    "327cce4a901ad9c3963cb21676aedcf90032cd8b6ecfe41a3b4060ac5bece000"),
    "sieve": (["sieve", "--alpha", "sqrt:2", "--x", "10000", "--z", "5"],
              "5ceabb4bea539011dc701796dc8e25e79e89f0480f6f707c3b6208aee95e69d7"),
    "lemma2": (["lemma2", "--alpha", "sqrt:2", "--x", "500", "--dmax", "10"],
               "0ad0ab95925419d652df1f5aa9b98765eacfc02dd62562573ccad2416504a8b2"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_csv_body_golden_digest(capsys, name):
    argv, digest = _GOLDEN[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_integral_with_mc_builds_one_table(capsys, sieve_calls):
    code, _, _ = run_cli(capsys, "integral", "--c1", "1", "--c2", "2", "--x", "1000",
                         "--mc-samples", "100")
    assert code == 0 and sieve_calls == [2000]


def test_scan_header_and_determinism(capsys):
    args = ("scan", "--c1", "1", "--c2", "2", "--beta", "rat:0/1",
            "--x-grid", "100:500", "--samples", "4", "--seed", "11",
            "--pin", "sqrt:2")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert out1.splitlines()[0] == "alpha_spec,x,pair_count,statistic"
    _, out2, _ = run_cli(capsys, *args, "--threads", "3")
    assert out1 == out2


def test_integral_schema(capsys):
    code, out, _ = run_cli(capsys, "integral", "--c1", "1", "--c2", "2",
                           "--beta", "rat:0/1", "--x", "2")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "x,c1,c2,beta,exact_num,exact_den,mc_mean,mc_stderr,ratio"
    fields = row.split(",")
    assert fields[0] == "2" and fields[4] == "1" and fields[5] == "1"
    assert fields[6] == "" and fields[7] == ""  # no MC requested


def test_integral_with_mc(capsys):
    code, out, _ = run_cli(capsys, "integral", "--c1", "1", "--c2", "2",
                           "--x", "200", "--mc-samples", "100", "--seed", "3")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert float(fields[6]) > 0 and float(fields[7]) > 0


def test_lemma1(capsys):
    code, out, err = run_cli(capsys, "lemma1", "--I", "0,1", "--b", "1",
                             "--l", "1/2")
    assert code == 0
    assert out.splitlines()[0] == "lo_num,lo_den,hi_num,hi_den"
    assert out.splitlines()[1] == "0,1,1,1"
    assert "measure: 1/1" in err and "bound_ok: true" in err


def test_lemma2_schema_and_variants(capsys):
    for variant in ("paper", "alternative"):
        code, out, err = run_cli(capsys, "lemma2", "--alpha", "sqrt:2",
                                 "--x", "500", "--dmax", "10",
                                 "--mobius-variant", variant)
        assert code == 0
        assert out.splitlines()[0] == \
            "d,count,main_term_num,main_term_den,abs_error,normalized_error"
        assert f"mobius_variant {variant}: agrees" in err
    ds = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ds == [1, 2, 3, 5, 6, 7, 10]


def test_equidist_schema(capsys):
    code, out, _ = run_cli(capsys, "equidist", "--alpha", "sqrt:2",
                           "--y", "1000", "--width", "1/10")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "y,width_num,width_den,count,expected_num,expected_den,conv_q,bound_ok"
    assert row == "1000,1,10,100,100,1,985,true"


def test_sieve_schema_and_verdict(capsys):
    code, out, err = run_cli(capsys, "sieve", "--alpha", "sqrt:2",
                             "--x", "10000", "--z", "5")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "z,G_num,G_den,product_lower_num,product_lower_den," \
                     "sifted_count,Q_num,Q_den"
    assert row.split(",")[:5] == ["5", "83", "36", "9", "1"]
    assert "verdict: OK" in err


def test_farey_schema(capsys):
    code, out, _ = run_cli(capsys, "farey", "--qmax", "3", "--halfwidth", "1/50")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "d_prime,q_max,halfwidth_num,halfwidth_den," \
                     "measure_num,measure_den,bound_num,bound_den"
    assert row == "1,3,1,50,13,150,13,150"


def test_exit_code_parameter(capsys):
    code, _, err = run_cli(capsys, "pairs", "--alpha", "bogus", "--x", "10")
    assert code == 2
    assert err.startswith("error: parameter:")


def test_exit_code_certification(capsys):
    code, _, err = run_cli(capsys, "equidist", "--alpha", "cf:1,2", "--y", "10",
                           "--width", "1/2")
    assert code == 3
    assert err.startswith("error: certification:")


def test_exit_code_disagreement(capsys, monkeypatch):
    import beattylab.cli as cli
    real = cli.count_mobius
    monkeypatch.setattr(cli, "count_mobius", lambda q, variant: real(q, variant) + (q.d == 6))
    code, out, err = run_cli(capsys, "lemma2", "--alpha", "sqrt:2", "--x", "500",
                             "--dmax", "10", "--mobius-variant", "paper")
    assert code == 1 and out == ""
    assert err.startswith("error: disagreement:") and "d=6" in err


def test_exit_code_guard(capsys):
    code, _, err = run_cli(capsys, "farey", "--qmax", "99999",
                           "--halfwidth", "1/9")
    assert code == 4
    assert err.startswith("error: guard:")
    code, _, err = run_cli(capsys, "sieve", "--alpha", "sqrt:2", "--x", "100000",
                           "--z", "190")
    assert code == 4 or code == 0  # z=190 within guard; use 201 for violation
    code, _, err = run_cli(capsys, "sieve", "--alpha", "sqrt:2", "--x", "100000",
                           "--z", "201")
    assert code == 4


def test_argparse_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pairs", "--x", "10"])  # missing --alpha
    assert exc.value.code == 2


def test_out_and_manifest(tmp_path, capsys):
    out = tmp_path / "pairs.csv"
    code, stdout, _ = run_cli(capsys, "pairs", "--alpha", "phi", "--x", "50",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text().splitlines()[0] == "alpha_spec,beta_spec,x,count,statistic"
    manifest = json.loads((tmp_path / "pairs.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)]
    assert manifest["version"]
    assert "timestamp" in manifest and "config_digest" in manifest


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("alpha = sqrt:2\nbeta = rat:0/1\nx = 100\n")
    code, out, _ = run_cli(capsys, "pairs", "--config", str(cfgf))
    assert code == 0
    assert out.splitlines()[1].startswith("sqrt:2,rat:0/1,100,7,")
    # later flags override file values
    code, out, _ = run_cli(capsys, "pairs", "--config", str(cfgf), "--x", "10")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "10"


def test_scan_svg_output(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    code, _, err = run_cli(capsys, "scan", "--c1", "1", "--c2", "2",
                           "--x-grid", "100:300", "--samples", "2",
                           "--pin", "sqrt:2", "--svg", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "beattylab.cli", "pairs", "--alpha", "sqrt:2",
         "--x", "20"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "alpha_spec,beta_spec,x,count,statistic"
