"""Smoke tests of the ``python -m repro`` command line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.cli import build_parser, main

TINY_ARGS = ["--param", "loads=[0.2, 0.6]", "--param", "payload_sizes=[20]",
             "--param", "num_windows=2", "--param", "num_nodes=20"]


class TestParser:
    def test_run_defaults(self):
        arguments = build_parser().parse_args(["run", "fig6_csma"])
        assert arguments.experiment == "fig6_csma"
        assert arguments.jobs == 1
        assert not arguments.no_cache

    def test_param_parsing(self):
        arguments = build_parser().parse_args(
            ["run", "fig6_csma", "--param", "num_windows=4",
             "--param", "loads=[0.1, 0.2]", "--param", "mode=fast"])
        assert dict(arguments.param) == {"num_windows": 4,
                                         "loads": [0.1, 0.2],
                                         "mode": "fast"}

    def test_bad_param_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6_csma", "--param", "oops"])

    @pytest.mark.parametrize("text,expected", [
        ("flag=true", ("flag", True)),
        ("flag=FALSE", ("flag", False)),
        ("cap=none", ("cap", None)),
        ("cap=NULL", ("cap", None)),
        ("cap=None", ("cap", None)),          # literal_eval path
        ("mode=fast", ("mode", "fast")),      # plain string stays a string
        ("empty=", ("empty", "")),
        ("expr=a=b", ("expr", "a=b")),        # only the first '=' splits
        ("n=3", ("n", 3)),
        ("xs=[1, 2]", ("xs", [1, 2])),
    ])
    def test_param_value_normalisation(self, text, expected):
        from repro.runner.cli import _parse_param
        assert _parse_param(text) == expected

    def test_param_without_key_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6_csma", "--param", "=3"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6_csma" in out
        assert "case_study" in out

    def test_list_verbose_shows_params(self, capsys):
        assert main(["list", "--verbose"]) == 0
        assert "--param num_windows=" in capsys.readouterr().out

    def test_list_verbose_renders_the_typed_schema(self, capsys):
        """Every parameter line shows default, domain and doc string."""
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "--param num_windows=15  [int in [1, 64]]" in out
        assert "--param tx_policy='adaptive'  [one of 'adaptive', 'fixed']" \
            in out
        assert "--param superframe_order=None  [int in [0, 14] or None]" \
            in out
        assert "channel inversion" in out  # doc strings are rendered

    def test_run_and_cache_hit(self, tmp_path, capsys):
        cache_args = ["--cache-dir", str(tmp_path)]
        assert main(["run", "fig6_csma", "--jobs", "2", *TINY_ARGS,
                     *cache_args]) == 0
        first = capsys.readouterr().out
        assert "computed with 2 job(s)" in first
        assert main(["run", "fig6_csma", *TINY_ARGS, *cache_args]) == 0
        second = capsys.readouterr().out
        assert "[cache]" in second

    def test_run_no_cache(self, tmp_path, capsys):
        assert main(["run", "fig6_csma", "--no-cache", *TINY_ARGS]) == 0
        assert "computed with 1 job(s)" in capsys.readouterr().out

    def test_unknown_experiment_fails_with_suggestion(self, capsys):
        assert main(["run", "fig6"]) == 2
        err = capsys.readouterr().err
        assert "Unknown experiment" in err
        assert "fig6_csma" in err

    def test_unknown_param_fails(self, capsys):
        assert main(["run", "fig6_csma", "--no-cache",
                     "--param", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_unknown_param_fails_with_close_match_suggestion(self, capsys):
        """Satellite: --param typos get did-you-mean suggestions, like
        experiment names always have."""
        assert main(["run", "fig6_csma", "--no-cache",
                     "--param", "num_widnows=2"]) == 2
        err = capsys.readouterr().err
        assert "no parameter 'num_widnows'" in err
        assert "Did you mean: num_windows" in err

    def test_out_of_domain_param_fails_with_the_domain(self, capsys):
        assert main(["run", "fig6_csma", "--no-cache",
                     "--param", "num_windows=0"]) == 2
        err = capsys.readouterr().err
        assert "num_windows" in err and "int in [1, 64]" in err

    def test_equivalent_param_spellings_replay_from_cache(self, tmp_path,
                                                          capsys):
        """Acceptance: ``--param num_windows=4`` and ``--param
        num_windows="4"`` canonicalise to the same cache key."""
        cache_args = ["--cache-dir", str(tmp_path)]
        assert main(["run", "fig6_csma", "--quiet", *TINY_ARGS[:-2],
                     "--param", "num_nodes=20", *cache_args]) == 0
        capsys.readouterr()
        assert main(["run", "fig6_csma", "--quiet", *TINY_ARGS[:-2],
                     "--param", 'num_nodes="20"', *cache_args]) == 0
        assert "[cache]" in capsys.readouterr().out

    def test_run_output_file_csv(self, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        assert main(["run", "fig6_csma", "--no-cache", *TINY_ARGS,
                     "--output-file", str(out_file)]) == 0
        # Status lines go through logging to stderr; rows stay on stdout.
        assert f"wrote 2 rows to {out_file}" in capsys.readouterr().err
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("payload_bytes,load,")
        assert len(lines) == 3  # header + one row per load

    def test_run_output_file_json_inferred_from_extension(self, tmp_path,
                                                          capsys):
        import json
        out_file = tmp_path / "rows.json"
        assert main(["run", "fig6_csma", "--no-cache", "--quiet", *TINY_ARGS,
                     "--output-file", str(out_file)]) == 0
        rows = json.loads(out_file.read_text())
        assert len(rows) == 2
        assert rows[0]["payload_bytes"] == 20

    def test_run_output_columns_stable_across_cache_hits(self, tmp_path,
                                                         capsys):
        """Regression: cache-served rows come back JSON-key-sorted; the CSV
        column order must not depend on whether the run was a hit."""
        cold_file = tmp_path / "cold.csv"
        warm_file = tmp_path / "warm.csv"
        cache_args = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["run", "fig6_csma", "--quiet", *TINY_ARGS, *cache_args,
                     "--output-file", str(cold_file)]) == 0
        assert main(["run", "fig6_csma", "--quiet", *TINY_ARGS, *cache_args,
                     "--output-file", str(warm_file)]) == 0
        assert "[cache]" in capsys.readouterr().out
        assert cold_file.read_bytes() == warm_file.read_bytes()
        # Declared output_names lead, in their documented order.
        assert cold_file.read_text().splitlines()[0] == \
            "payload_bytes,load,on_air_bytes,t_cont_s,n_cca,pr_col,pr_cf"

    def test_csv_replay_is_byte_identical_to_the_computed_run(self, tmp_path,
                                                             capsys):
        """Regression: the nested ``energy_by_phase_j`` cell printed in
        insertion order when computed and in sorted-key order on a cache
        hit.  Both now print sorted keys, to stdout and to a file."""
        args = ["run", "case_study_full", "--param", "total_nodes=64",
                "--param", "superframes=3", "--cache-dir",
                str(tmp_path / "cache")]
        outputs, files, summaries = [], [], []
        for name in ("computed", "replayed"):
            out_file = tmp_path / f"{name}.csv"
            assert main([*args, "--output", "csv"]) == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
            summaries.append(captured.err)
            assert main([*args, "--quiet", "--output-file",
                          str(out_file)]) == 0
            capsys.readouterr()
            files.append(out_file.read_bytes())
        assert "[computed" in summaries[0] and "[cache]" in summaries[1]
        assert outputs[0] == outputs[1]
        assert files[0] == files[1] == outputs[0].encode("utf-8")
        cell = re.search(r'"(\{.*?\})"', outputs[0]).group(1)
        keys = re.findall(r"'(\w+)':", cell)
        assert keys and keys == sorted(keys)

    def test_run_output_stdout_is_pipeable(self, tmp_path, capsys):
        """--output without a file: rows own stdout, summary moves to
        stderr so `python -m repro run ... --output csv | ...` stays clean."""
        assert main(["run", "fig6_csma", "--no-cache", *TINY_ARGS,
                     "--output", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("payload_bytes,load,")
        assert "fig6_csma: 2 rows" not in captured.out
        assert "fig6_csma: 2 rows" in captured.err

    def test_cache_inspect_and_clear(self, tmp_path, capsys):
        assert main(["run", "fig6_csma", *TINY_ARGS,
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "artifacts:  1" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out

    def test_cache_prune_requires_criterion(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--keep-current" in capsys.readouterr().err

    def test_cache_prune_keep_current(self, tmp_path, capsys):
        from repro.runner.cache import ResultCache

        assert main(["run", "fig6_csma", *TINY_ARGS,
                     "--cache-dir", str(tmp_path)]) == 0
        cache = ResultCache(root=tmp_path)
        stale_key = cache.key("old", {}, 0, "0123456789abcdef")
        cache.store(stale_key, {"experiment": "old",
                                "code_version": "0123456789abcdef"})
        capsys.readouterr()
        assert main(["cache", "prune", "--keep-current",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 1 stale artifact(s)" in capsys.readouterr().out
        # The current-version artifact survived; the replay still hits.
        assert main(["run", "fig6_csma", *TINY_ARGS,
                     "--cache-dir", str(tmp_path)]) == 0
        assert "[cache]" in capsys.readouterr().out


#: The commands and options each ``--help`` page lists (subcommand choices
#: as ``{a,b}``).  The lazily attached sweep/bench/serve/jobs trees must
#: print exactly what they printed when they were built eagerly.
HELP_SURFACE = {
    (): ["--help", "--log-level", "--quiet", "-h", "-q",
         "{debug,info,warning,error}",
         "{list,run,cache,obs,sweep,bench,serve,jobs}"],
    ("run",): ["--cache-dir", "--help", "--jobs", "--no-cache", "--output",
               "--output-file", "--param", "--quiet", "--seed", "--trace",
               "-h", "-j", "-q", "{csv,json}"],
    ("list",): ["--help", "--verbose", "-h"],
    ("cache",): ["--backend", "--cache-dir", "--clear", "--help",
                 "--keep-current", "-h", "{directory,shared}",
                 "{show,prune,stats}"],
    ("obs",): ["--help", "-h", "{report,validate}"],
    ("sweep",): ["--help", "-h", "{list,run,status,export,optimize}"],
    ("bench",): ["--baseline-dir", "--check", "--help", "--out", "--phases",
                 "--quick", "--repeats", "--tolerance", "-h"],
    ("serve",): ["--backend", "--cache-dir", "--help", "--host", "--jobs",
                 "--max-attempts", "--port", "--seed", "--stale-after",
                 "--store", "--workers", "-h", "-j", "{directory,shared}"],
    ("jobs",): ["--help", "--url", "-h", "{submit,status,fetch,cancel,list}"],
}


def _help_tokens(text):
    options = re.findall(r"(?<![\w-])--?[a-zA-Z][\w-]*", text)
    choices = re.findall(r"\{[\w,]+\}", text)
    return sorted(set(options + choices) - {"-m"})  # "-m" is from the prog


class TestHelpSurface:
    @pytest.mark.parametrize("command", sorted(HELP_SURFACE),
                             ids=lambda command: "-".join(command) or "top")
    def test_help_lists_the_same_commands_and_options(self, command,
                                                      capsys):
        with pytest.raises(SystemExit) as caught:
            main([*command, "--help"])
        assert caught.value.code == 0
        assert _help_tokens(capsys.readouterr().out) == \
            sorted(HELP_SURFACE[command])


class TestModuleEntryPoint:
    def test_python_dash_m_repro_help(self):
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"], capture_output=True,
            text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        assert _help_tokens(completed.stdout) == sorted(HELP_SURFACE[()])

    def test_python_dash_m_repro(self, tmp_path):
        """The acceptance command: ``python -m repro run fig6_csma --jobs 2``."""
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig6_csma", "--jobs", "2",
             "--quiet", *TINY_ARGS, "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        assert "fig6_csma" in completed.stdout
