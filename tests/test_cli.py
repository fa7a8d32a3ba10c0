"""Command-line interface: outputs, round trips, determinism, exit codes.

Claims covered:
    - reference outputs for constants / probs / limits / moments
    - constants print the bytes they printed before, for ordinary
      parameters of each kind and at scales from 1e11 to 1e13
    - limit moments in all three regimes print the bytes they printed
      before, so a last-digit drift in the log-Gamma evaluation shows
    - full split rows (exact up to n = 700, symmetrized, and a float row
      past the exact cutoff) print the bytes they printed before
    - exact rationals survive serialization as p/q strings, also past
      the interpreter's 4300-digit int-to-str limit (Cayley n = 1400)
    - JSON outputs parse back; identical argv (and seed) gives
      byte-identical output, also when the worker count changes, for
      both simulation engines
    - the README simulate examples print the bytes they printed before
      (one-sided, and two-sided through the size process),
      and so does the README's exact n=600 moments table, recorded with
      the big-integer kernel before the residue kernel replaced it, and
      its exact one-sided n=400 table, recorded with 64-prime chunks
    - past the bound on exact counts, moments in auto mode fall back to
      floats, and exact mode is a validation error
    - exit codes: 0 ok, 1 validation or usage error, 2 failed criteria;
      a --size-one-cost that is no finite number, a negative --seed, and
      a negative --smax, a NaN --alpha or a two-sided --alpha below 1e-3
      for limits are validation errors
    - simulate with one sample prints strict JSON, null standard errors
    - simulate with an s_max whose power sums overflow float64 exits 1
      and prints nothing; the error names the first power that overflows
      and the largest s_max that avoids it, or, where the costs
      themselves overflow, asks for a smaller toll or n
    - a rational --size-one-cost is echoed as a p/q string
    - a toll or a float moment table past the float64 range exits 1 with
      a message naming the toll, or the first n and s, and prints nothing;
      two-sided, it names n and the product of two orders that poisoned it
    - float moment tables of 3000 sizes, one- and two-sided, print the
      bytes they printed before the toll mix was built block by block
    - an --out file that cannot be opened, a family without --kind, and
      an array too large to allocate exit 1 with "treecut: error:" and
      print nothing
    - a family whose float counts or constants would leave double range
      (kind A at alpha0 = 1e160 or 1e300, kind C at alpha1 = 1e300 or
      1e400) exits 1 naming the family, for counts, moments, simulate and
      constants alike
    - counts leave the exact cell empty past --exact-cutoff and print
      each ln T_n as its repr; verify's CSV rows for criteria 7 and 9
      are each column formatted as before
"""

import decimal
import hashlib
import json
import math
from fractions import Fraction

import pytest

from treecut import cli, counts, simulate, verify
from treecut.cli import main
from treecut.family import make_family


@pytest.fixture()
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_constants_reference(capture):
    code, out, _ = capture("constants", "--kind", "C", "--alpha0", "1", "--alpha1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 0.5
    assert payload["rho"] == 0.25
    assert payload["sigma2"] == 2.0
    assert payload["a0"] == "-1" and payload["a1"] == "2"


@pytest.mark.parametrize("family, expected", [
    (("--kind", "A", "--alpha0", "1"),
     "806cf4df09f230e452b9d185b9d41822eed95d25a3a858993d940f5ae81d0422"),
    (("--kind", "B", "--alpha0", "1/2", "--d", "3"),
     "95ddde43d5d4a9d47ce7e42f9188c9b33ff377f6805b68cc48c84c682c33d6ca"),
    (("--kind", "C", "--alpha0", "1/3", "--alpha1", "5/6"),
     "fd0db2abdaa7f574b1bd97de61443680ade3cb28e7288ba7d15dc66f9bdd299c"),
    (("--kind", "A", "--alpha0", "1e11"),
     "37370ddcf5de8ef52fd076c0e409d4be6a501eec5e5cebf4708bf651d236f02f"),
    (("--kind", "B", "--alpha0", "1e13", "--d", "2"),
     "ce31aebf50b9567d24f9d4f89fc240bf6f6baff5ff073ff9fb72b9f26aca78c1"),
    (("--kind", "C", "--alpha0", "1e13", "--alpha1", "1e13"),
     "9eed239f6d0f33b293e97b6e825f83a845bc3112a50e63eb9bcb75033d617613"),
    (("--kind", "C", "--alpha0", "1", "--alpha1", "1e12"),
     "4036e2ea7c35168d0d24463c8b712fcfbf390a519e30e231f0ac7e64a0c598f2"),
], ids=["A-1", "B-1/2-3", "C-1/3-5/6", "A-1e11", "B-1e13", "C-1e13", "C-alpha1-1e12"])
def test_constants_at_extreme_scales(capture, family, expected):
    code, out, err = capture("constants", *family)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["tau"] == float(1 / Fraction(payload["a1"]))
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_probs_reference(capture):
    code, out, _ = capture("probs", "--kind", "A", "--alpha0", "1", "--n", "4")
    assert code == 0
    assert out == "k,p\n1,3/16\n2,1/4\n3,9/16\n"


def test_probs_symmetrized(capture):
    code, out, _ = capture("probs", "--kind", "A", "--alpha0", "1", "--n", "4", "--symmetrized")
    assert code == 0
    assert out == "k,p\n1,3/8\n2,1/4\n3,3/8\n"


@pytest.mark.parametrize("family, n, extra, expected", [
    (("--kind", "A", "--alpha0", "1"), "700", (),
     "fbeb632f829724f50bcff12245bbcda1cecb76369c73d7662e5c9663d2ca9f94"),
    (("--kind", "C", "--alpha0", "2/3", "--alpha1", "5/7"), "500", (),
     "7b23da7ff494babd27044019ec3b820566a46d81a339dfc2f94c1a3f6daf271b"),
    (("--kind", "B", "--alpha0", "2", "--d", "2"), "300", ("--symmetrized",),
     "7f2f0c17643ecb025d87832b37339f0a37011b41210aaf92127e83cf2774c5a9"),
    (("--kind", "C", "--alpha0", "1", "--alpha1", "1"), "2500", (),  # past the exact cutoff: a float row
     "5e538949e8eb60cf48037082c5670ac7520ff9bc44f4bb3868e3eb229033cb1b"),
], ids=["A-700", "C-2/3-5/7-500", "B-300-sym", "C-2500-float"])
def test_probs_row_bytes(capture, family, n, extra, expected):
    code, out, _ = capture("probs", *family, "--n", n, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_probs_past_the_int_to_str_digit_limit(capture):
    # Cayley rows from n = 1373 on hold integers of more than 4300 digits, past str()'s default limit
    code, out, err = capture("probs", "--kind", "A", "--alpha0", "1", "--n", "1400")
    assert code == 0 and err == ""
    rows = out.splitlines()
    dist = counts.split_distribution(counts.compute_counts(make_family("A", 1), 1400, exact_cutoff=1400), 1400)
    assert len(rows[1].split("/")[1]) > 4300  # p_{n,1}'s denominator
    for k in (1, 700):
        index, text = rows[k].split(",")
        p, q = (int(decimal.Decimal(part)) for part in text.split("/"))  # int(str) has the same limit
        assert int(index) == k and Fraction(p, q) == dist.prob(k)


def test_limits_reference(capture):
    code, out, _ = capture("limits", "--regime", "one", "--alpha", "0", "--smax", "2")
    assert code == 0
    values = json.loads(out)
    assert values[0] == 1.0
    assert values[1] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert values[2] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("args, expected", [
    (("--regime", "two", "--alpha", "0.3", "--smax", "6"),
     "f7882b5d1dee55f1ab1fa6db28ae27c898c717ceb3d31cc0ff2052b113d84447"),
    (("--regime", "two", "--alpha", "1", "--smax", "8"),
     "1a8055bc5cb34324944d9fd56a3158447446fda25f40dfde304f8e170a8e29bd"),
    (("--regime", "one", "--alpha", "1.7", "--smax", "6"),
     "26c558f6cb7470b9863a5cb91d07269cb235bd46480de95eddb048ce9b980602"),
    (("--regime", "two-half", "--smax", "6"),
     "63989782146a98f63bd96e36379ca5bf5e0e240fc04d25441017a5b920329748"),
], ids=["two-0.3", "two-1", "one-1.7", "two-half"])
def test_limits_bytes(capture, args, expected):
    code, out, _ = capture("limits", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_moments_exact_csv(capture):
    code, out, _ = capture(
        "moments", "--kind", "C", "--alpha0", "1", "--alpha1", "1",
        "--variant", "one", "--alpha", "0", "--nmax", "3", "--smax", "1", "--mode", "exact",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,s,mu"
    assert "3,1,11/4" in out.splitlines()


def test_moments_edges_only_flag(capture):
    code, out, _ = capture(
        "moments", "--kind", "A", "--alpha0", "1",
        "--variant", "two", "--alpha", "0", "--nmax", "5", "--smax", "1",
        "--size-one-cost", "0",
    )
    assert code == 0
    assert "5,1,4" in out.splitlines()  # exactly n - 1


@pytest.mark.parametrize("variant, alpha, expected", [
    ("two", "2", "d19933a598a32ab2a9641360a59bc70520c7ebc135ca8d2708bf6b32da114d79"),
    ("one", "1", "dd329ecca3dfca6f5a93b018af632c1cb16ea6f23b7647910c8e16521460b907"),
])
def test_moments_rational_size_one_cost_bytes(capture, variant, alpha, expected):
    # t_1 = 2/5 puts the scale D = 5 into the integer recurrence; the digests pin its output
    code, out, _ = capture(
        "moments", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", variant,
        "--alpha", alpha, "--nmax", "60", "--smax", "3", "--size-one-cost", "2/5",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_moments_readme_exact_bytes(capture):
    # the README's exact n=600 table; its stdout was recorded with the big-integer kernel
    code, out, _ = capture(
        "moments", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", "two", "--alpha", "1",
        "--nmax", "600", "--smax", "2", "--mode", "exact",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "38458fc68db31b39889724c6c8dca2afb01ba9649efbf2d293f59a2cecad5f0c"


def test_moments_readme_one_sided_exact_bytes(capture):
    # the README's exact one-sided n=400 table; its stdout was recorded with three 64-prime chunks
    code, out, _ = capture(
        "moments", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", "one", "--alpha", "1",
        "--nmax", "400", "--smax", "2", "--mode", "exact",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "60f3ac117ca5b055843f91aabadfd5a796c684e8ba0b70df9fbbedc6c77b4ddd"


@pytest.mark.parametrize("variant, alpha, expected", [
    ("two", "0.5", "71c0eb10e4c19b1fcc2466a46c76f78dcc62275d0dc9c2347a0707eae225a1e7"),
    ("one", "1", "e5b7bba750eb9a798e7790ab1c8fafa4b07a3998132d5e218f0250d33884cf55"),
])
def test_moments_float_bytes(capture, variant, alpha, expected):
    # float tables over many blocks of the toll mix; recorded when the whole mix was held at once
    code, out, _ = capture(
        "moments", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", variant, "--alpha", alpha,
        "--nmax", "3000", "--smax", "4", "--mode", "float",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_moments_auto_past_exact_bound(capture, monkeypatch):
    # past the bound on exact counts, auto mode prints float moments and exact mode is an error
    monkeypatch.setattr(counts, "MAX_EXACT_CUTOFF", 10)
    monkeypatch.setattr(cli, "MAX_EXACT_CUTOFF", 10)
    argv = ("moments", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", "two", "--alpha", "1")
    code, out, _ = capture(*argv, "--nmax", "10")
    assert code == 0 and "10,1,131072/2431" in out.splitlines()
    code, out, err = capture(*argv, "--nmax", "11")
    assert code == 0 and err == "" and "/" not in out
    values = dict(line.rsplit(",", 1) for line in out.splitlines()[1:])
    assert float(values["10,1"]) == pytest.approx(131072 / 2431, rel=1e-13)
    code, out, err = capture(*argv, "--nmax", "11", "--mode", "exact")
    assert code == 1 and out == ""
    assert "--mode exact needs --nmax <= 10, got 11" in err


def test_counts_csv(capture):
    code, out, _ = capture(
        "counts", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--nmax", "8", "--exact-cutoff", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,t_exact,ln_t"
    cells = [line.split(",") for line in lines[1:]]
    assert [cell[1] for cell in cells] == ["1", "1", "2", "5", "14", "", "", ""]  # past --exact-cutoff: empty
    table = counts.compute_counts(make_family("C", 1, alpha1=1), 8, exact_cutoff=5)
    assert [cell[2] for cell in cells] == [repr(table.log_t(n)) for n in range(1, 9)]


def test_family_config_file(capture, tmp_path):
    config = tmp_path / "family.cfg"
    config.write_text("kind=B\nalpha0=2\nd=2\n")
    code, out, _ = capture("constants", "--family-config", str(config))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "B" and payload["sigma2"] == 0.5


def test_simulate_deterministic_and_exact(capture):
    argv = (
        "simulate", "--kind", "C", "--alpha0", "1", "--alpha1", "1",
        "--variant", "two", "--alpha", "0", "--n", "100",
        "--samples", "2000", "--seed", "11", "--size-one-cost", "0",
    )
    code, out1, _ = capture(*argv)
    assert code == 0
    payload = json.loads(out1)
    assert payload["moment_estimates"][0] == 99.0
    assert payload["standard_errors"][0] == 0.0
    _, out2, _ = capture(*argv)
    assert out1 == out2  # byte-identical replay
    _, out4, _ = capture(*argv, "--workers", "4")
    assert json.loads(out4)["moment_estimates"] == payload["moment_estimates"]
    assert json.loads(out4)["standard_errors"] == payload["standard_errors"]


@pytest.mark.parametrize("engine", ["size", "explicit"])
def test_simulate_workers_byte_identical_nondegenerate(capture, engine):
    base = (
        "simulate", "--kind", "C", "--alpha0", "1", "--alpha1", "1",
        "--variant", "one", "--alpha", "1", "--n", "60",
        "--samples", "9000", "--seed", "5", "--engine", engine,
    )
    _, out1, _ = capture(*base, "--workers", "1")
    _, out4, _ = capture(*base, "--workers", "4")
    assert json.loads(out1)["moment_estimates"] == json.loads(out4)["moment_estimates"]
    assert json.loads(out1)["standard_errors"] == json.loads(out4)["standard_errors"]


def test_simulate_readme_example_bytes(capture):
    # the README example; its stdout was recorded before the sampler moved to a guide table
    code, out, _ = capture(
        "simulate", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", "one", "--alpha", "1",
        "--n", "200", "--samples", "100000", "--seed", "1", "--workers", "4",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "bef85b080a4e6984093dc6415df5887332425a81af0e102402de5417fc356702"


def test_simulate_readme_two_sided_bytes(capture):
    # the README's two-sided size-process example; its stdout was recorded before the level step
    # skipped the size-2 components
    code, out, _ = capture(
        "simulate", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", "two", "--alpha", "0.5",
        "--n", "1000", "--samples", "8192", "--seed", "1", "--workers", "2",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "bee14155b92d731f499406647a245aed3ac33476cd6b2c6ddcf80824169ff11f"


def test_simulate_overflowing_smax_exits_1(capture):
    # cost^64 passes the float64 range: an error before any output, not standard errors of 0
    code, out, err = capture(
        "simulate", "--kind", "C", "--alpha0", "1", "--alpha1", "1", "--variant", "two", "--alpha", "1",
        "--n", "2000", "--samples", "10", "--smax", "32", "--seed", "1",
    )
    assert code == 1
    assert out == "" and err.startswith("treecut: error: s_max = 32")


@pytest.mark.parametrize("argv, message", [
    # the costs themselves pass float64: no s_max can help
    (("--kind", "A", "--alpha0", "1", "--alpha", "308", "--n", "10", "--smax", "1"),
     "s_max = 1 is not the cause: the sum of the cost to the power 1 over the samples overflows float64, "
     "and every s_max needs powers 1 and 2; use a smaller toll or n"),
    (("--kind", "C", "--alpha0", "1", "--alpha1", "1", "--alpha", "1", "--n", "2000", "--smax", "32"),
     "s_max = 32 is too large: the sum of the cost to the power 57 over the samples overflows float64; "
     "s_max <= 28 avoids it"),
])
def test_simulate_overflow_names_first_power(capture, argv, message):
    code, out, err = capture("simulate", "--variant", "two", "--samples", "10", "--seed", "1", *argv)
    assert code == 1 and out == ""
    assert err == f"treecut: error: {message}\n"


def test_out_file(capture, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = capture("limits", "--regime", "two", "--alpha", "1", "--smax", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[2] == pytest.approx(5 / 3, rel=1e-12)


def test_verify_pass_subset(capture, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = capture("verify", "--only", "3,10", "--out-json", str(report))
    assert code == 0
    assert "[PASS] criterion  3" in out and "[PASS] criterion 10" in out
    payload = json.loads(report.read_text())
    assert [entry["criterion"] for entry in payload] == [3, 10]
    assert all(entry["passed"] for entry in payload)


def test_verify_failing_criterion_exits_2(capture):
    # criterion 5 is the documented honest failure at its stipulated n
    code, out, _ = capture("verify", "--only", "5")
    assert code == 2
    assert "[FAIL] criterion  5" in out


def test_verify_csv_rows(capture, tmp_path):
    rows = tmp_path / "rows.csv"
    code, out, _ = capture("verify", "--only", "7,9", "--out-csv", str(rows))
    assert code == 0
    lines = rows.read_text().splitlines()
    assert lines[0] == "criterion,family,variant,alpha,n,s,normalized,limit,rel_error"
    # each column as the CSV has always formatted it; the criteria are deterministic, so a rerun gives the same rows
    expected = [
        ",".join([str(row["criterion"]), row["family"], row["variant"], repr(float(row["alpha"])), str(row["n"]),
                  str(row["s"]), repr(row["normalized"]), repr(row["limit"]), repr(row["rel_error"])])
        for number in (7, 9) for row in verify.ALL_CRITERIA[number]().rows
    ]
    assert len(expected) == 4 * 3 + 4 * 2
    assert lines[1:] == expected


def test_validation_errors_exit_1(capture):
    code, _, err = capture("constants", "--kind", "C", "--alpha0", "1")  # alpha1 missing
    assert code == 1 and "error" in err
    code, _, err = capture("probs", "--kind", "A", "--alpha0", "1", "--n", "1")
    assert code == 1
    code, _, err = capture(
        "moments", "--kind", "A", "--alpha0", "1", "--variant", "one",
        "--alpha", "0.5", "--nmax", "10", "--mode", "exact",
    )
    assert code == 1 and "rational" in err


def test_simulate_one_sample_is_strict_json(capture):
    # one sample has no spread: its standard errors print as null, not as NaN, which strict JSON rejects
    code, out, _ = capture(
        "simulate", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "1", "--n", "20",
        "--samples", "1", "--seed", "1",
    )
    assert code == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    assert json.loads(out, parse_constant=reject)["standard_errors"] == [None, None]


def test_simulate_rational_size_one_cost(capture):
    code, out, _ = capture(
        "simulate", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "0", "--n", "5",
        "--samples", "10", "--seed", "1", "--size-one-cost", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["size_one_cost"] == "1/2"
    assert payload["moment_estimates"][0] == 4 + 5 / 2  # n - 1 cuts at alpha = 0, n size-1 pieces


@pytest.mark.parametrize("value", ["abc", "1/0", "x/2", "nan", "inf"])
@pytest.mark.parametrize("command", ["moments", "simulate"])
def test_bad_size_one_cost_exits_1(capture, command, value):
    args = {
        "moments": ("--nmax", "5"),
        "simulate": ("--n", "5", "--samples", "10", "--seed", "1"),
    }[command]
    code, out, err = capture(
        command, "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "1", *args,
        "--size-one-cost", value,
    )
    assert code == 1
    assert out == "" and err.startswith("treecut: error: ")
    assert "Traceback" not in err


def test_allocation_failure_exits_1(capture, monkeypatch):
    # a split table too large for the host is an error line, not a traceback; nothing large is allocated here
    def too_large(counts, n):
        raise MemoryError("Unable to allocate 9.13 GiB for an array with shape (2449965000,) and data type uint32")

    monkeypatch.setattr(simulate, "_cumulative_rows", too_large)
    code, out, err = capture(
        "simulate", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "1", "--n", "2000",
        "--samples", "1", "--seed", "1",
    )
    assert code == 1 and out == ""
    assert err == (
        "treecut: error: Unable to allocate 9.13 GiB for an array with shape (2449965000,) and data type uint32\n"
    )


def test_negative_seed_exits_1(capture):
    code, out, err = capture(
        "simulate", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "1", "--n", "5",
        "--samples", "10", "--seed", "-1",
    )
    assert code == 1
    assert out == "" and err.startswith("treecut: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ("--regime", "one", "--smax", "-1"),
        ("--regime", "two", "--alpha", "1", "--smax", "-1"),
        ("--regime", "one", "--alpha", "nan"),
        ("--regime", "two", "--alpha", "nan"),
        ("--regime", "one", "--alpha", "inf"),
        ("--regime", "two", "--alpha", "inf"),
        ("--regime", "two", "--alpha", "1e-16", "--smax", "3"),
        ("--regime", "one", "--alpha", "1e300", "--smax", "3"),
    ],
    ids=["one-smax", "two-smax", "one-nan", "two-nan", "one-inf", "two-inf", "two-tiny", "one-huge"],
)
def test_bad_limits_input_exits_1(capture, args):
    code, out, err = capture("limits", *args)
    assert code == 1
    assert out == "" and err.startswith("treecut: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("moments", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "inf", "--nmax", "5"),
         "alpha must be finite"),
        (
            ("simulate", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "inf", "--n", "5",
             "--samples", "10", "--seed", "1"),
            "alpha must be finite",
        ),
        (("counts", "--kind", "A", "--alpha0", "1", "--nmax", "5", "--exact-cutoff", "-5"), "exact_cutoff"),
        (("constants", "--kind", "A", "--alpha0", "1e-300"), "leaves double range"),
        (("counts", "--alpha0", "1", "--nmax", "5"), "specify --kind"),
        # a toll or a moment past float64 is an error, not NaN rows or a blame on s_max
        (("moments", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "400", "--nmax", "8",
          "--mode", "float"), "the toll n^400.0 passes the float64 range from n = 6"),
        (("simulate", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "400", "--n", "8",
          "--samples", "10", "--seed", "1"), "the toll n^400.0 passes the float64 range from n = 6"),
        (("moments", "--kind", "A", "--alpha0", "1", "--variant", "one", "--alpha", "100", "--nmax", "8",
          "--smax", "4", "--mode", "float"), "from n = 6, s = 4; long double or a smaller s_max reaches further"),
        # two-sided, a product of two orders poisons every order of its n, the counts row s = 0 included
        (("moments", "--kind", "A", "--alpha0", "1", "--variant", "two", "--alpha", "308", "--nmax", "10",
          "--smax", "1", "--mode", "float"),
         "from n = 7: a product of two orders j, l with j + l up to 2 * s_max = 2 passed it there"),
        # rho^2, the size of the products of two rho-scaled counts, would leave the normal double range
        (("counts", "--kind", "A", "--alpha0", "1e300", "--nmax", "5"),
         f"{make_family('A', '1e300').label()} leaves double range"),
        (("moments", "--kind", "A", "--alpha0", "1e160", "--variant", "two", "--alpha", "1", "--nmax", "5",
          "--smax", "1", "--mode", "float"), f"{make_family('A', '1e160').label()} leaves double range"),
        (("simulate", "--kind", "A", "--alpha0", "1e300", "--variant", "two", "--alpha", "1", "--n", "5",
          "--samples", "4000", "--seed", "1"), f"{make_family('A', '1e300').label()} leaves double range"),
        (("counts", "--kind", "C", "--alpha0", "1", "--alpha1", "1e300", "--nmax", "5"),
         f"{make_family('C', 1, alpha1='1e300').label()} leaves double range"),
        (("constants", "--kind", "C", "--alpha0", "1", "--alpha1", "1e400"),
         f"{make_family('C', 1, alpha1='1e400').label()} leaves double range"),
        # an arity past 2^16 would round rho; one past the double range was a traceback
        (("counts", "--kind", "B", "--alpha0", "1", "--d", str(10**400), "--nmax", "5"),
         f"{make_family('B', 1, d=10**400).label()} leaves double range"),
        (("constants", "--kind", "B", "--alpha0", "1", "--d", str(2**17)),
         f"{make_family('B', 1, d=2**17).label()} leaves double range"),
        # kind C's gamma past 2^16 rounds rho the same way: alpha1 = 1/2 + 2^-18 makes gamma = 2^17
        (("constants", "--kind", "C", "--alpha0", "1", "--alpha1", "131073/262144"),
         f"{make_family('C', 1, alpha1='131073/262144').label()} leaves double range"),
        (("probs", "--kind", "A", "--alpha0", "1", "--n", "1"), "n must be >= 2, got 1"),
        (("probs", "--kind", "A", "--alpha0", "1", "--n", "0"), "n must be >= 2, got 0"),
    ],
    ids=["moments-inf", "simulate-inf", "counts-cutoff", "constants-underflow", "counts-no-kind",
         "moments-toll", "simulate-toll", "moments-table", "moments-table-two-sided",
         "counts-A-1e300", "moments-A-1e160", "simulate-A-1e300", "counts-C-1e300", "constants-C-1e400",
         "counts-B-d1e400", "constants-B-d2^17", "constants-C-gamma2^17", "probs-n1", "probs-n0"],
)
def test_bad_command_input_exits_1(capture, argv, message):
    code, out, err = capture(*argv)
    assert code == 1
    assert out == "" and err.startswith("treecut: error: ") and message in err
    assert "Traceback" not in err


def test_unwritable_out_exits_1(capture, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = capture("counts", "--kind", "A", "--alpha0", "1", "--nmax", "5", "--out", str(target))
    assert code == 1
    assert out == "" and err.startswith("treecut: error: ") and str(target) in err


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as info:
        main(["probs", "--kind", "Q", "--alpha0", "1", "--n", "4"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


@pytest.mark.parametrize("only", ["12", "0", "x", "3,12", ","])
def test_verify_rejects_unknown_criteria(capture, only):
    code, out, err = capture("verify", "--only", only)
    assert code == 1
    assert out == "" and err.startswith("treecut: error: ")
