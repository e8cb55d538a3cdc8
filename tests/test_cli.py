import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reidemeister import cli, generate_group, standard_generators
from reidemeister.cli import main
from reidemeister.modring import canonical_key

from conftest import within_one_second


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body(out):
    """Report payload with the timestamped header line stripped."""
    lines = out.splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    return "\n".join(lines)


class TestOrder:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "order", "--modulus", "5")
        assert code == 0
        payload = json.loads(body(out))
        assert payload["group_order"] == 120
        assert payload["order_formula"] == 120
        assert payload["format"] == 1

    def test_header_line(self, capsys):
        _, out, _ = run(capsys, "order", "--modulus", "5")
        assert out.splitlines()[0].startswith("# reidemeister order format=1 ")

    def test_capacity_exit(self, capsys):
        code, _, err = run(capsys, "order", "--modulus", "7", "--cap", "10")
        assert code == 3
        assert "capacity" in err

    @pytest.mark.parametrize("n,shown", [(120, "about 1.94e+13798"), (40, "about 6.54e+1545")])
    def test_over_cap_order_is_one_short_line(self, capsys, monkeypatch, n, shown):
        # |Sp(240, Z_3)| has 13,799 digits, past str()'s 4,300; the cap is
        # checked before the 478 dense 240 x 240 generators are built
        def refuse(*_):
            raise AssertionError("generators built before the cap check")

        monkeypatch.setattr("reidemeister.group.standard_generators", refuse)
        code, out, err = run(capsys, "order", "--n", str(n), "--modulus", "3")
        assert (code, out) == (3, "")
        assert err == ("error: capacity: closure exceeded cap of 10000000 elements "
                       f"({shown} found)\n")

    def test_small_n_reports_unchanged(self, capsys):
        # below the uncounted bound the over-cap message keeps its exact count
        # and a within-cap group its report
        code, out, err = run(capsys, "order", "--n", "3", "--modulus", "3")
        assert (code, out) == (3, "")
        assert err == ("error: capacity: closure exceeded cap of 10000000 elements "
                       "(9170703360 found)\n")
        code, out, _ = run(capsys, "order", "--n", "2", "--modulus", "3", "--no-header")
        assert code == 0
        assert json.loads(out) == {"format": 1, "command": "order", "n": 2, "modulus": 3,
                                   "group_order": 51840, "order_formula": 51840}


class TestClasses:
    def test_csv_sizes_sum(self, capsys):
        code, out, _ = run(capsys, "classes", "--modulus", "5",
                           "--output", "csv", "--no-header")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "class_id,representative,size"
        assert sum(int(r.split(",")[2]) for r in rows[1:]) == 120

    def test_json_count(self, capsys):
        code, out, _ = run(capsys, "classes", "--modulus", "5", "--no-header")
        payload = json.loads(out)
        assert code == 0
        assert payload["class_count"] == len(payload["class_sizes"])
        assert sum(payload["class_sizes"]) == 120


class TestTwisted:
    def test_sign_flip_count(self, capsys):
        code, out, _ = run(capsys, "twisted", "--modulus", "5", "--no-header")
        assert code == 0
        assert json.loads(out)["class_count"] == 9

    def test_identity_matches_classes(self, capsys):
        _, out1, _ = run(capsys, "twisted", "--modulus", "7",
                         "--aut", "identity", "--no-header")
        _, out2, _ = run(capsys, "classes", "--modulus", "7", "--no-header")
        assert json.loads(out1)["class_count"] == json.loads(out2)["class_count"]

    def test_bad_descriptor(self, capsys):
        code, _, err = run(capsys, "twisted", "--modulus", "5",
                           "--aut", "frobenius")
        assert code == 2
        assert "error" in err

    def test_deterministic_bytes(self, capsys):
        args = ("twisted", "--modulus", "7", "--output", "csv", "--no-header")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestCharacterFile:
    def _write_charfile(self, tmp_path, values):
        from reidemeister import generate_group, standard_generators
        g = generate_group(standard_generators(1, 5))
        lines = ["# character values per generator"]
        seen = []
        for aug, src in enumerate(g.gen_source):
            if src not in seen:
                seen.append(src)
                key = canonical_key(g.element(g.generators[aug])).hex()
                lines.append(f"{key}={values[src]}")
        path = tmp_path / "char.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_trivial_twist_runs(self, capsys, tmp_path):
        path = self._write_charfile(tmp_path, ["+1", "+1"])
        code, out, _ = run(capsys, "twisted", "--modulus", "5",
                           "--aut", f"twist:{path}", "--no-header")
        assert code == 0
        # trivial character: the twist of the identity is the identity, so
        # this is plain conjugacy
        _, out2, _ = run(capsys, "classes", "--modulus", "5", "--no-header")
        assert json.loads(out)["class_count"] == json.loads(out2)["class_count"]

    def test_inconsistent_character_rejected(self, capsys, tmp_path):
        # the group is perfect: a generator value of -1 cannot extend
        path = self._write_charfile(tmp_path, ["-1", "+1"])
        code, _, err = run(capsys, "twisted", "--modulus", "5",
                           "--aut", f"twist:{path}")
        assert code == 2
        assert "error" in err

    def test_key_given_both_values_rejected(self, capsys, tmp_path):
        # +1 lines twice, then -1 lines, for both generators of Sp(2, Z_6):
        # a repeated line is harmless, but each value alone is a character,
        # and the file must not pick the last
        path = tmp_path / "char.txt"
        path.write_text("".join(f"{k}={v}\n" for v in ("+1", "+1", "-1") for k in KEYS[6]))
        code, out, err = run(capsys, "twisted", "--modulus", "6", "--aut", f"twist:{path}")
        assert (code, out) == (2, "")
        assert err == (f"error: PreconditionError: {path}:5: "
                       f"{KEYS[6][0]} was given both +1 and -1\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "twisted", "--modulus", "5",
                           "--aut", "twist:/nonexistent/char.txt")
        assert code == 2


    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "char.txt"
        path.write_bytes(b"\xff\xfe" + "0=+1\n".encode("utf-16-le"))
        code, out, err = run(capsys, "twisted", "--modulus", "5",
                             "--aut", f"twist:{path}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: PreconditionError: cannot read character file")
        assert str(path) in err


def _generator_keys(m):
    """Hex canonical keys of the user generators of Sp(2, Z_m)."""
    g = generate_group(standard_generators(1, m))
    first = [g.gen_source.index(src) for src in range(max(g.gen_source) + 1)]
    return [canonical_key(g.element(g.generators[c])).hex() for c in first]


KEYS = {m: _generator_keys(m) for m in (4, 5, 6, 8, 9, 10, 12)}


def _exit_status(argv):
    """cli.main's exit status, argparse's included, with both output
    channels captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--no-header"])
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


# Each subcommand's flags with small and boundary values.  --cap is always
# given and small, so no draw enumerates more than 1,000 elements; the
# required flags are always given, so most draws get past argparse.
N = [1, 2, 3, 0, -1]
MODULI = [5, 3, 2, 7, 6, 4, 1, 0, -1, 2**61 - 1, 10**30]
AUTS = ["sign_flip", "identity", "", "frob", "inner:", "inner:x", "inner:1,2",
        "inner:1,1,0,1", "inner:2,0,0,2", "twist:", "twist:/nonexistent/char.txt"]
SP_FLAGS = {"--n": N, "--modulus": MODULI}
GRAMMAR = {
    "order": SP_FLAGS,
    "classes": SP_FLAGS,
    "twisted": {**SP_FLAGS, "--aut": AUTS},
    "oracle-semidirect": {**SP_FLAGS, "--aut": AUTS},
    "oracle-burnside": {**SP_FLAGS, "--aut": AUTS},
    "oracle-shift": {**SP_FLAGS, "--aut": AUTS, "--trials": [1, 2, 0, -1]},
    "oracle-quotient": {**SP_FLAGS, "--aut": AUTS, "--target": [5, 3, 2, 1, 0, -1, 2**61 - 1]},
    "certify-prop32": {"--p": [5, 7, 3, 2, 4, 0, -1, 2**61 - 1]},
    "certify-growth": {"--n": N, "--primes": ["5", "3,5,7", "7,5", "4", "", ",", "5,x", "-1,2",
                                              f"5,{2**61 - 1}"]},
    "blocks-thm33": {"--n": N, "--modulus": MODULI, "--w": [2, 3, 4, 1, 0, -1]},
}
COMMON = {"--cap": [400, 1000, 24, 2, 1, 0, -1], "--output": ["json", "text", "csv"],
          "--seed": [0, 1, -1]}


@st.composite
def argv_from_the_grammar(draw):
    """A subcommand with each of its optional flags present or not, each
    flag's value drawn from its list, then maybe an unknown flag or a stray
    word."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in {**GRAMMAR[command], **COMMON}.items():
        if flag in ("--cap", "--modulus", "--target", "--p") or draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return argv + draw(st.sampled_from([[]] * 5 + [["--bogus"], ["--frob", "1"], ["stray"]]))


@st.composite
def character_file_bytes(draw, m):
    """Raw bytes, or lines of key=value with keys and values that are valid,
    near misses or noise."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    key = st.one_of(st.sampled_from(KEYS[m]), st.text(max_size=12))
    value = st.one_of(st.sampled_from(["+1", "-1", "1"]), st.text(max_size=4))
    line = st.one_of(st.tuples(key, value).map("=".join), st.text(max_size=20))
    lines = draw(st.lists(line, max_size=4))
    return "\n".join(lines).encode(draw(st.sampled_from(["utf-8", "utf-16", "latin-1"])),
                                   errors="replace")


class TestRandomInput:
    """Every argv, --aut descriptor and twist: file either works or exits
    with a message, never with status 4 and never with a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["", "inner:", "twist:", "sign_flip", "identity"]),
           st.text(max_size=40))
    @example("twist:", "char\x00.txt")  # open() rejects the NUL with a ValueError
    @example("", "")  # --aut= names no automorphism: a usage error
    def test_descriptor_strings(self, prefix, rest):
        code, err = _exit_status(["twisted", "--modulus", "5", f"--aut={prefix}{rest}"])
        assert code in (0, 1, 2), err
        assert code == 0 or err.startswith("error: ")

    @settings(max_examples=300, deadline=None)
    @given(argv_from_the_grammar())
    @example(["oracle-semidirect", "--modulus=7", "--cap=300"])
    @example(["certify-growth", "--primes=5,7", "--cap=200"])
    @example(["certify-growth", "--n=0", f"--primes=5,{2**61 - 1}", "--cap=2"])
    def test_argv_from_the_grammar(self, argv):
        with within_one_second(" ".join(argv)):
            code, err = _exit_status(argv)
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and "internal error" not in err, err
        if code == 3:  # one line that names the cap
            assert err.startswith("error: capacity: ") and err.count("\n") == 1, err

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([4, 5]).flatmap(
        lambda m: st.tuples(st.just(m), character_file_bytes(m))))
    def test_character_files(self, tmp_path_factory, case):
        m, data = case
        path = tmp_path_factory.mktemp("char") / "char.txt"
        path.write_bytes(data)
        code, err = _exit_status(["twisted", "--modulus", str(m), f"--aut=twist:{path}"])
        assert code in (0, 1, 2), err
        assert code == 0 or err.startswith("error: ")

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 6, 8, 9, 10, 12]),
           st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2))
    def test_random_character_twists(self, tmp_path_factory, m, values):
        # A +-1 character of Sp(2, Z_m) = SL(2, Z_m) takes one value on both
        # shears, which are conjugate up to inversion, and that value is +1
        # for odd m, the shears' order; for even m, -1 is the sign of
        # SL(2, Z_2) = S_3 pulled back.  Every other draw must exit 2.
        path = tmp_path_factory.mktemp("twist") / "twist.txt"
        path.write_text("".join(f"{key}={v:+d}\n" for key, v in zip(KEYS[m], values)))
        code, err = _exit_status(["twisted", "--modulus", str(m), f"--aut=twist:{path}"])
        assert code in (0, 1, 2), err
        assert code == 0 or err.startswith("error: ")
        is_character = values[0] == values[1] and (values[0] == 1 or m % 2 == 0)
        assert code == (0 if is_character else 2), err


class TestCertifyCommands:
    def test_prop32_pass(self, capsys):
        code, out, _ = run(capsys, "certify-prop32", "--p", "5", "--no-header")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["computed"]["class_count"] == 9

    def test_prop32_bad_p(self, capsys):
        code, _, err = run(capsys, "certify-prop32", "--p", "4")
        assert code == 2

    def test_growth_single(self, capsys):
        code, out, _ = run(capsys, "certify-growth", "--primes", "5",
                           "--no-header")
        assert code == 0

    def test_growth_default_fails_monotonicity(self, capsys):
        # the R column over 5,7,11,13 is 9,7,11,17: bound holds everywhere
        # but strict growth does not, so the verdict (and exit) is fail
        code, out, _ = run(capsys, "certify-growth", "--no-header")
        assert code == 1
        payload = json.loads(out)
        assert payload["computed"]["bound_ok"] is True
        assert payload["computed"]["strictly_increasing"] is False

    def test_growth_csv(self, capsys):
        code, out, _ = run(capsys, "certify-growth", "--primes", "5",
                           "--output", "csv", "--no-header")
        assert out.splitlines()[0] == "p,group_order,reidemeister_count,bound"
        assert out.splitlines()[1] == "5,120,9,1"

    def test_growth_capacity_inconclusive(self, capsys):
        code, out, err = run(capsys, "certify-growth", "--primes", "5,7",
                           "--cap", "200", "--no-header")
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "inconclusive"
        assert payload["computed"]["capacity_exceeded_at"] == 7
        assert err == "error: capacity: closure exceeded cap of 200 elements at p = 7\n"

    def test_growth_text_rows(self, capsys):
        # R is 9 then 7: the bound holds, strict growth does not
        code, out, _ = run(capsys, "certify-growth", "--primes", "5,7",
                           "--output", "text", "--no-header")
        assert code == 1
        assert out == ("claim: lemma2.2-growth-evidence\nverdict: fail\nbound_ok: True\n"
                       "strictly_increasing: False\n"
                       "  p=5 order=120 R=9 bound=1\n  p=7 order=336 R=7 bound=2\n")


class TestOracleCommands:
    def test_semidirect(self, capsys):
        code, out, _ = run(capsys, "oracle-semidirect", "--modulus", "5",
                           "--no-header")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_semidirect_cap_counts_the_group(self, capsys):
        # the cap bounds the closure of Sp(2, Z_7), 336 elements; the oracle
        # holds 336-row tables, whatever the order 672 of Sp(2, Z_7) x| Z_2
        _, want, _ = run(capsys, "oracle-semidirect", "--modulus", "7", "--no-header")
        code, out, err = run(capsys, "oracle-semidirect", "--modulus", "7", "--cap", "400",
                             "--no-header")
        assert (code, out, err) == (0, want, "")
        assert json.loads(out)["computed"]["semidirect_order"] == 672
        code, out, err = run(capsys, "oracle-semidirect", "--modulus", "7", "--cap", "300",
                             "--no-header")
        assert (code, out) == (3, "")
        assert err == "error: capacity: closure exceeded cap of 300 elements (336 found)\n"

    def test_burnside(self, capsys):
        code, out, _ = run(capsys, "oracle-burnside", "--modulus", "13", "--no-header")
        assert code == 0
        payload = json.loads(out)
        assert payload["claim_id"] == "tbft-fixed-classes"
        assert payload["verdict"] == "pass"
        assert payload["computed"]["fixed_class_count"] == 17

    def test_burnside_text_and_bad_descriptor(self, capsys):
        code, out, _ = run(capsys, "oracle-burnside", "--modulus", "7", "--aut",
                           "inner:1,1,0,1", "--output", "text", "--no-header")
        assert code == 0
        assert "verdict: pass" in out.splitlines()
        code, _, err = run(capsys, "oracle-burnside", "--modulus", "7", "--aut", "frob")
        assert code == 2
        assert "error" in err

    def test_shift(self, capsys):
        code, out, _ = run(capsys, "oracle-shift", "--modulus", "5",
                           "--trials", "3", "--no-header")
        assert code == 0
        payload = json.loads(out)
        assert payload["computed"]["all_pass"] is True
        assert payload["computed"]["trials"] == 3

    def test_shift_seeded_deterministic(self, capsys):
        args = ("oracle-shift", "--modulus", "5", "--trials", "3",
                "--seed", "7", "--no-header")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "oracle-quotient", "--modulus", "25",
                           "--target", "5", "--no-header")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_quotient_non_divisor(self, capsys):
        code, _, err = run(capsys, "oracle-quotient", "--modulus", "5",
                           "--target", "7")
        assert code == 2

    @pytest.mark.parametrize("target", ["1009", "97", "0", "1", "-5"])
    def test_quotient_target_checked_before_any_closure(self, capsys, target):
        # |Sp(2, Z_1009)| is over the default cap and Sp(2, Z_97) takes a
        # second to enumerate; neither divides 7, and --target 0 must not
        # reach a reduction by 0
        with within_one_second(target):
            code, out, err = run(capsys, "oracle-quotient", "--modulus", "7",
                                 "--target", target)
        assert code == 2, err
        assert out == ""
        assert err.endswith(f"target modulus {target} does not divide 7\n" if int(target) >= 2
                            else f"--target must be >= 2, got {target}\n")


class TestBlocksCommand:
    def test_default_is_honest_fail(self, capsys):
        # over the smallest admissible modulus the only candidate unit is
        # w = 2 = -1, where the off-block argument degenerates; the
        # certificate records 88 violating solutions and fails
        code, out, _ = run(capsys, "blocks-thm33", "--no-header")
        assert code == 1
        payload = json.loads(out)
        assert payload["computed"]["solutions_in_torus"] == 96
        assert payload["computed"]["block_violations"] == 88

    def test_bad_w(self, capsys):
        code, _, err = run(capsys, "blocks-thm33", "--w", "3")
        assert code == 2


class TestBadInput:
    """Bad input exits 2 with a message: no traceback, no vacuous pass."""

    def test_shift_zero_trials(self, capsys):
        code, out, err = run(capsys, "oracle-shift", "--modulus", "5", "--trials", "0")
        assert code == 2
        assert out == ""
        assert "--trials must be >= 1" in err

    def test_shift_trials_checked_before_the_closure(self, capsys):
        # |Sp(2, Z_1009)| is over the default cap: building it first exits 3
        with within_one_second("oracle-shift"):
            code, out, err = run(capsys, "oracle-shift", "--modulus", "1009", "--trials", "0")
        assert code == 2, err
        assert out == ""
        assert "--trials must be >= 1, got 0" in err

    def test_classes_takes_no_aut(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["classes", "--modulus", "5", "--aut", "sign_flip"])
        assert e.value.code == 2
        assert "unrecognized arguments: --aut sign_flip" in capsys.readouterr().err

    def test_growth_empty_prime_list(self, capsys):
        code, out, err = run(capsys, "certify-growth", "--primes", ",")
        assert code == 2
        assert out == ""
        assert "at least one prime" in err

    def test_growth_non_integer_primes(self, capsys):
        code, out, err = run(capsys, "certify-growth", "--primes", "5,x")
        assert code == 2
        assert "comma-separated integers" in err

    def test_modulus_too_wide_for_int64(self, capsys):
        code, out, err = run(capsys, "order", "--modulus", str(2**32 + 15))
        assert code == 2
        assert "too large" in err

    @pytest.mark.parametrize("argv", [
        ("order", "--modulus", str(2**61 - 1)),
        ("order", "--modulus", str(10**30)),
        ("twisted", "--modulus", str(10**30)),
        ("oracle-quotient", "--modulus", "6", "--target", str(2**61 - 1)),
        ("certify-prop32", "--p", str(2**61 - 1)),
        ("certify-growth", "--primes", f"5,{2**61 - 1}"),
        ("blocks-thm33", "--modulus", str(2**61 - 1)),
    ])
    def test_huge_modulus_rejected_at_once(self, capsys, argv):
        # 2**61 - 1 is prime: trial division would run for hours, and 10**30
        # overflows int64; the int64 bound must reject both first
        with within_one_second(argv[0]):
            code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert "too large" in err

    @pytest.mark.parametrize("argv", [
        ("order", "--n", "2", "--modulus", "7"),
        ("blocks-thm33", "--modulus", "1000000007"),
    ])
    def test_over_cap_group_exits_at_once(self, capsys, argv):
        # |Sp(4, Z_7)| = 276,595,200 and |Sp(4, Z_1000000007)| exceed the
        # default cap of 10**7: the order formula says so before any closure
        with within_one_second(argv[0]):
            code, out, err = run(capsys, *argv)
        assert code == 3, err
        assert out == ""
        assert "capacity" in err

    def test_thm33_modulus_without_w(self, capsys):
        # the only unit of Z_2 is 1, so the default w = 2 is no unit
        code, out, err = run(capsys, "blocks-thm33", "--modulus", "2")
        assert code == 2, err
        assert out == ""
        assert "w = 2 is not a unit mod 2" in err

    def test_inner_entries_beyond_int64(self, capsys):
        # 10**20 - 1 = 4 (mod 5): conjugation by diag(-1, 1), the sign flip
        code, out, err = run(capsys, "twisted", "--modulus", "5", "--no-header",
                             "--aut", "inner:99999999999999999999,0,0,1")
        assert code == 0, err
        assert json.loads(out)["class_count"] == 9

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one(self, capsys, cap):
        code, out, err = run(capsys, "order", "--modulus", "5", "--cap", cap)
        assert code == 2
        assert out == ""
        assert f"--cap must be >= 1, got {cap}" in err

    def test_unmapped_exception_is_internal_error(self, capsys, monkeypatch):
        def boom(g, phi):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "twisted_classes", boom)
        code, out, err = run(capsys, "classes", "--modulus", "5")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: ZeroDivisionError: boom\n"


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "order", "--modulus", "5", "--no-header",
                           "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["group_order"] == 120

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "classes", "--modulus", "5",
                           "--output", "text", "--no-header")
        assert code == 0
        assert "class_count:" in out

    def test_unwritable_out(self, capsys):
        code, _, err = run(capsys, "order", "--modulus", "5",
                           "--out", "/nonexistent/dir/x.json")
        assert code == 2

    def test_only_the_rendered_formats(self):
        # csv where the report is a table; text on all but order
        required = {"oracle-quotient": ["--modulus", "6", "--target", "3"],
                    "certify-prop32": ["--p", "5"], "certify-growth": [], "blocks-thm33": []}
        parser = cli.build_parser()
        accepted = set()
        for command in GRAMMAR:
            for output in ("json", "csv", "text"):
                argv = [command, *required.get(command, ["--modulus", "5"]), "--output", output]
                with contextlib.suppress(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                    parser.parse_args(argv)
                    accepted.add((command, output))
        assert len(accepted) == 22
        assert {c for c, o in accepted if o == "csv"} == {"classes", "twisted", "certify-growth"}
        assert {c for c, o in accepted if o == "text"} == set(GRAMMAR) - {"order"}

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 2
