"""CLI contract tests: exit codes, report schema, determinism."""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import pytest

from qtrin import cli
from qtrin.identities import (REGISTRY, IdentityInstance, VerificationReport,
                              compute_side)
from qtrin.series import LaurentSeries, TrivariateSeries
from test_golden_sides import CASES as GOLDEN_CASES


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def strip_timing(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


class TestVerify:
    def test_exact_instance_json(self):
        code, text = run(["verify", "--id", "third_pair", "--param", "L=8"])
        assert code == 0
        records = json.loads(text)
        assert len(records) == 1
        rec = records[0]
        assert set(rec) == {"id", "params", "cutoff_halves", "match",
                            "first_mismatch", "elapsed_ms"}
        assert rec["id"] == "third_pair"
        assert rec["params"] == {"L": 8}
        assert rec["cutoff_halves"] is None
        assert rec["match"] is True
        assert rec["first_mismatch"] is None

    def test_missing_cutoff_exits_2(self):
        code, _ = run(["verify", "--id", "kr1"])
        assert code == 2

    def test_cutoff_q_doubles(self):
        code, text = run(["verify", "--id", "kr1", "--cutoff-q", "25"])
        assert code == 0
        assert json.loads(text)[0]["cutoff_halves"] == 50

    def test_conflicting_cutoffs(self):
        code, _ = run(["verify", "--id", "kr1", "--cutoff", "10",
                       "--cutoff-q", "5"])
        assert code == 2

    def test_bad_param_syntax(self):
        code, _ = run(["verify", "--id", "third_pair", "--param", "L=x"])
        assert code == 2

    def test_unknown_id(self):
        code, _ = run(["verify", "--id", "bogus", "--param", "L=1"])
        assert code == 2

    def test_duplicate_param_exits_2(self, capsys):
        argv = ["verify", "--id", "thm71", "--param", "M=1", "--param", "M=3"]
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == "error: duplicate --param 'M'\n"

    def test_mismatch_exits_1(self, monkeypatch):
        def fake_verify(inst):
            return VerificationReport(inst, False, (4, 1, 2), 0)
        monkeypatch.setattr(cli, "verify_identity", fake_verify)
        code, text = run(["verify", "--id", "third_pair", "--param", "L=2"])
        assert code == 1
        rec = json.loads(text)[0]
        assert rec["match"] is False
        assert rec["first_mismatch"] == \
            {"exponent_halves": 4, "lhs": 1, "rhs": 2}


# one valid parameter set for every truncated-mode id
TRUNCATED_PARAMS = {
    "kr1": {}, "cap2": {}, "outlook2": {},
    "q_binomial_theorem": {"a_sign": 1, "a_exp": 2, "z_sign": 1, "z_exp": 2},
    "q_exponential": {"z_sign": 1, "z_exp": 2},
    "jtp": {"z_sign": 1, "z_exp": 0},
    "genfun_products": {"pair": 1, "t_cutoff": 2},
    "lemma_genfun": {"n": -1, "t_cutoff": 2},
}
TRUNCATED_IDS = sorted(id for id, d in REGISTRY.items()
                       if d.mode == "truncated")


class TestCutoffRange:
    @staticmethod
    def verify(id, cutoff):
        argv = ["verify", "--id", id, "--cutoff", str(cutoff)]
        for k, v in TRUNCATED_PARAMS[id].items():
            argv += ["--param", f"{k}={v}"]
        return run(argv)

    @pytest.mark.parametrize("id", TRUNCATED_IDS)
    def test_negative_cutoff_exits_2(self, id):
        for cutoff in (-1, -4):
            assert self.verify(id, cutoff) == (2, "")

    @pytest.mark.parametrize("id", TRUNCATED_IDS)
    def test_zero_cutoff_matches(self, id):
        code, text = self.verify(id, 0)
        assert code == 0
        assert json.loads(text)[0]["match"] is True


class TestShortenedWindow:
    """A side known only below the requested cutoff is a failed check:
    an ``error:`` line and exit 1, not a traceback."""

    @staticmethod
    def shorten(monkeypatch, id, rhs):
        monkeypatch.setitem(REGISTRY, id,
                            dataclasses.replace(REGISTRY[id], rhs=rhs))

    def test_verify(self, monkeypatch, capsys):
        base = REGISTRY["kr1"].rhs
        self.shorten(monkeypatch, "kr1", lambda p, c: base(p, c - 2))
        code, text = run(["verify", "--id", "kr1", "--cutoff", "20"])
        assert code == 1
        assert json.loads(text) == []
        assert capsys.readouterr().err.startswith("error: kr1: RHS is known "
                                                  "only to 18")

    def test_sweep(self, monkeypatch, capsys):
        base = REGISTRY["third_pair"].rhs
        self.shorten(monkeypatch, "third_pair", lambda p, c: base(p, c)
                     if p["L"] < 2 else base(p, c).truncate(4))
        code, text = run(["sweep", "--id", "third_pair", "--range", "L=0..3"])
        assert code == 1
        # the records before the failing instance stay valid JSON
        assert [r["params"] for r in json.loads(text)] == [{"L": 0}, {"L": 1}]
        assert capsys.readouterr().err.startswith(
            "error: third_pair: RHS is known only to 4")


class TestGradedMismatch:
    """A mismatch on a side in (t, q) or (t, x, q) is a full record that
    also names its t-degree and x exponent, in every format."""

    @staticmethod
    def plant(monkeypatch, id, key):
        """Add q to the RHS entry at ``key`` = (t_degree, x_exponent)."""
        base = REGISTRY[id].rhs

        def rhs(p, c):
            side = base(p, c)
            entries = dict(side.entries)
            entries[key] = side.entry(*key) + LaurentSeries({2: 1})
            return TrivariateSeries(entries, t_cutoff=side.t_cutoff,
                                    q_cutoff=side.q_cutoff)
        monkeypatch.setitem(REGISTRY, id,
                            dataclasses.replace(REGISTRY[id], rhs=rhs))

    ARGV = ["verify", "--id", "genfun_products", "--param", "pair=1",
            "--param", "t_cutoff=3", "--cutoff", "8", "--format"]

    def test_json(self, monkeypatch, capsys):
        self.plant(monkeypatch, "genfun_products", (1, 0))
        code, text = run(self.ARGV + ["json"])
        assert (code, capsys.readouterr().err) == (1, "")
        rec = json.loads(text)[0]
        assert rec["match"] is False
        assert rec["first_mismatch"] == {"t_degree": 1, "x_exponent": 0,
                                         "exponent_halves": 2, "lhs": 1,
                                         "rhs": 2}

    def test_csv(self, monkeypatch, capsys):
        self.plant(monkeypatch, "genfun_products", (1, 0))
        code, text = run(self.ARGV + ["csv"])
        assert (code, capsys.readouterr().err) == (1, "")
        header, row = list(csv.reader(io.StringIO(text)))
        got = dict(zip(header, row))
        assert [got[k] for k in ("match", "mismatch_t_degree",
                                 "mismatch_x_exponent",
                                 "mismatch_exponent_halves", "mismatch_lhs",
                                 "mismatch_rhs")] == \
            ["False", "1", "0", "2", "1", "2"]

    def test_text(self, monkeypatch, capsys):
        self.plant(monkeypatch, "genfun_products", (1, 0))
        code, text = run(self.ARGV + ["text"])
        assert (code, capsys.readouterr().err) == (1, "")
        assert text.startswith("FAIL genfun_products")
        assert text.rstrip().endswith(
            "first mismatch {'t_degree': 1, 'x_exponent': 0, "
            "'exponent_halves': 2, 'lhs': 1, 'rhs': 2}")

    def test_sweep_in_x(self, monkeypatch, capsys):
        self.plant(monkeypatch, "lemma_genfun", (1, -1))
        code, text = run(["sweep", "--id", "lemma_genfun", "--range",
                          "n=0..1", "--param", "t_cutoff=2", "--cutoff", "8"])
        assert (code, capsys.readouterr().err) == (1, "")
        for rec in json.loads(text):
            mism = rec["first_mismatch"]
            assert (mism["t_degree"], mism["x_exponent"],
                    mism["exponent_halves"]) == (1, -1, 2)
            assert mism["rhs"] == mism["lhs"] + 1


class TestSweep:
    def test_csv_rows(self):
        code, text = run(["sweep", "--id", "thm71", "--range", "M=0..8",
                          "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 10    # header + 9 rows
        # a series in q has no columns for t and x
        assert lines[0] == ("id,params,cutoff_halves,match,"
                            "mismatch_exponent_halves,mismatch_lhs,"
                            "mismatch_rhs,elapsed_ms")
        assert all(",True," in line for line in lines[1:])

    def test_requires_range(self):
        code, _ = run(["sweep", "--id", "thm71"])
        assert code == 2

    def test_grid_order_deterministic(self):
        argv = ["sweep", "--id", "t0_sum", "--range", "L=0..3",
                "--range", "a=-2..2"]
        _, a = run(argv)
        _, b = run(argv)
        assert strip_timing(a) == strip_timing(b)
        params = [r["params"] for r in json.loads(a)]
        assert params == sorted(params, key=lambda p: (p["L"], p["a"]))

    def test_bad_range_syntax(self):
        code, _ = run(["sweep", "--id", "thm71", "--range", "M=5..1"])
        assert code == 2

    def test_param_also_swept_exits_2(self, capsys):
        argv = ["sweep", "--id", "thm71", "--range", "M=0..2",
                "--param", "M=5"]
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == \
            "error: given as both --range and --param: M\n"


class TestNoPool:
    """A sweep runs in the calling process: there is no ``--jobs``
    option, and QTRIN_JOBS is not read."""

    ARGV = ["sweep", "--id", "thm71", "--range", "M=0..3"]

    def test_jobs_is_unknown(self, capsys):
        assert run(self.ARGV + ["--jobs", "2"]) == (2, "")
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_env_is_ignored(self, monkeypatch):
        code, want = run(self.ARGV)
        assert code == 0
        monkeypatch.setenv("QTRIN_JOBS", "abc")
        code, text = run(self.ARGV)
        assert code == 0
        assert strip_timing(text) == strip_timing(want)


class TestSharedParser:
    """One parser serves every ``main`` call in a process."""

    VALID = ["sweep", "--id", "thm71", "--range", "M=0..2"]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("bad", [
        ["sweep", "--id", "thm71", "--range", "M=0..2", "--bogus"],
        ["sweep", "--id", "thm71", "--range", "M=5..1"],
        ["sweep", "--id", "bogus", "--range", "M=0..2"],
        ["verify", "--id", "kr1"],
    ])
    def test_valid_call_after_bad_usage(self, bad):
        _, want = run(self.VALID)
        assert run(bad)[0] == 2
        code, text = run(self.VALID)
        assert code == 0
        records = json.loads(text)
        assert [r["params"] for r in records] == [{"M": m} for m in range(3)]
        assert all(r["match"] for r in records)
        assert strip_timing(text) == strip_timing(want)


class TestEmitReport:
    """Emitting a whole report through ``ReportWriter``."""

    def records(self):
        return [VerificationReport(
            IdentityInstance("thm71", {"M": 2}), True, None, 7)]

    @staticmethod
    def emit(records, fmt):
        buf = io.StringIO()
        writer = cli.ReportWriter(fmt, buf)
        for rep in records:
            writer.write(rep)
        writer.close()
        return buf.getvalue()

    def test_empty_json(self):
        assert json.loads(self.emit([], "json")) == []

    def test_empty_csv_header_only(self):
        lines = self.emit([], "csv").strip().splitlines()
        assert len(lines) == 1

    def test_byte_identical_for_same_records(self):
        recs = self.records()
        assert self.emit(recs, "json") == self.emit(recs, "json")
        assert self.emit(recs, "csv") == self.emit(recs, "csv")

    def test_mismatch_populated(self):
        rep = VerificationReport(
            IdentityInstance("thm71", {"M": 1}), False, (6, 0, 1), 3)
        rec = json.loads(self.emit([rep], "json"))[0]
        assert rec["first_mismatch"] == \
            {"exponent_halves": 6, "lhs": 0, "rhs": 1}


class TestCoeffs:
    def test_text_output(self):
        code, text = run(["coeffs", "--id", "kr1", "--side", "LHS",
                          "--cutoff-q", "5", "--format", "text"])
        assert code == 0
        assert "q^0" in text and "q^5" in text

    def test_json_output(self):
        code, text = run(["coeffs", "--id", "kr1", "--side", "RHS",
                          "--cutoff-q", "6"])
        assert code == 0
        payload = json.loads(text)
        by_exp = {r["exponent_halves"]: r["coefficient"]
                  for r in payload["coefficients"]}
        assert by_exp[12] == 2    # q^6

    def test_exact_text_output_is_pinned(self):
        code, text = run(["coeffs", "--id", "poch_reversal", "--param",
                          "n=3", "--side", "LHS", "--format", "text"])
        assert (code, text) == (0, "      q^-6  -1\n      q^-5  1\n"
                                   "      q^-4  1\n      q^-2  -1\n"
                                   "      q^-1  -1\n       q^0  1\n")

    def test_truncated_json_output_is_pinned(self):
        code, text = run(["coeffs", "--id", "jtp", "--param", "z_sign=-1",
                          "--param", "z_exp=1", "--side", "LHS",
                          "--cutoff", "13", "--format", "json"])
        assert code == 0
        assert text == (
            '{"coefficients": [{"coefficient": 1, "exponent_halves": 0}, '
            '{"coefficient": -1, "exponent_halves": 1}, '
            '{"coefficient": -1, "exponent_halves": 3}, '
            '{"coefficient": 1, "exponent_halves": 6}, '
            '{"coefficient": 1, "exponent_halves": 10}], '
            '"cutoff_halves": 13, "id": "jtp", '
            '"params": {"z_exp": 1, "z_sign": -1}, "side": "LHS"}\n')

    def test_needs_cutoff_for_truncated(self):
        code, _ = run(["coeffs", "--id", "kr1", "--side", "LHS"])
        assert code == 2

    @pytest.mark.parametrize("side", ["LHS", "RHS"])
    def test_bivariate_side_exits_2(self, side, capsys, monkeypatch):
        # genfun_products is a series in (t, q), lemma_genfun in (t, x, q);
        # both are rejected from the registry, before any side is built
        def unbuilt(p, c):
            raise AssertionError("a side was built")
        for id, params in (("genfun_products", ["pair=1", "t_cutoff=2"]),
                           ("lemma_genfun", ["n=1", "t_cutoff=2"])):
            monkeypatch.setitem(REGISTRY, id, dataclasses.replace(
                REGISTRY[id], lhs=unbuilt, rhs=unbuilt))
            argv = ["coeffs", "--id", id, "--cutoff", "10", "--side", side]
            for param in params:
                argv += ["--param", param]
            code, text = run(argv)
            assert (code, text) == (2, ""), id
            assert "series in (t, q)" in capsys.readouterr().err

    def test_graded_ids_are_the_trivariate_sides(self):
        # one small instance of every registry id
        for inst in GOLDEN_CASES:
            for side in ("LHS", "RHS"):
                got = compute_side(inst, side)
                assert cli._graded(inst.id) == \
                    isinstance(got, TrivariateSeries), (inst.id, side)


class TestPartitionsCommand:
    def test_compare_ok(self):
        code, text = run(["partitions", "--variant", "first",
                          "--nmax", "15", "--compare", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["all_equal"] is True
        assert len(payload["rows"]) == 16

    def test_negative_nmax(self):
        code, text = run(["partitions", "--variant", "first", "--nmax", "-1"])
        assert (code, text) == (2, "")

    def test_unknown_variant(self):
        code, _ = run(["partitions", "--variant", "third", "--nmax", "5"])
        assert code == 2


class TestColdStart:
    # no command needs a worker pool, and only the commands that count
    # partitions, run the suite or write csv need the rest, so importing
    # the CLI leaves them all unloaded
    @pytest.mark.parametrize("module", ["concurrent.futures", "csv",
                                        "qtrin.partitions",
                                        "qtrin.acceptance"])
    def test_import_leaves_unloaded(self, module):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = f"import sys, qtrin.cli; sys.exit({module!r} in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

    def test_partition_names_resolve_on_the_package(self):
        import qtrin
        from qtrin import partitions
        assert qtrin.FIRST is partitions.FIRST
        assert qtrin.capparelli_chain is partitions.capparelli_chain
        with pytest.raises(AttributeError):
            qtrin.no_such_name


class TestTopLevel:
    def test_no_command(self):
        code, _ = run([])
        assert code == 2

    def test_unknown_flag(self):
        code, _ = run(["verify", "--id", "thm71", "--bogus"])
        assert code == 2
