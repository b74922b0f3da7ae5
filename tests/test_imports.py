"""Each command imports only the modules it runs, no command imports
`dataclasses`, no command that reads a cache loads OpenSSL, no command
loads a zip-safe resource reader, and `import namecensus` loads no
submodule and defines no public name."""

import hashlib
import os
import subprocess
import sys

import pytest

import namecensus
from namecensus.cache import read_source_digest, save_cache
from namecensus.cli import main
from namecensus.corpus import CountModel

# Runs the CLI as `python -m namecensus ARGS` does, then prints its exit code
# and every module loaded, one line.
RUN_CLI = """
import runpy, sys
try:
    runpy.run_module("namecensus", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, *sys.modules)
"""

# Modules an up-to-date build-cache and --version never need.
NOT_ON_THE_CHECK_PATH = {"dataclasses", "json", "namecensus.classifier", "namecensus.batchio",
                         "namecensus.report", "namecensus.namesplit"}


def _python(*argv):
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                            encoding="utf-8")
    assert result.stderr == ""
    return result.stdout


@pytest.fixture(scope="module")
def bare_modules():
    """What the interpreter on this host loads before any code runs."""
    return set(_python("-c", "import sys; print(*sys.modules)").split())


def loaded_modules(*args, site=True):
    """The exit code of `namecensus ARGS` and the modules it loaded. Without
    `site`, it runs under `python -S`, the directory holding the imported
    package first on sys.path, so the package found is this one, installed
    or not."""
    if site:
        flags, source = [], RUN_CLI
    else:
        root = os.path.dirname(os.path.dirname(namecensus.__file__))
        flags, source = ["-S"], f"import sys; sys.path.insert(0, {root!r})" + RUN_CLI
    code, *modules = _python(*flags, "-c", source, *map(str, args)).splitlines()[-1].split()
    return code, set(modules)


def test_version_loads_no_command_code(bare_modules):
    code, modules = loaded_modules("--version")
    assert code == "0"
    assert modules & (NOT_ON_THE_CHECK_PATH - bare_modules) == set()


def test_up_to_date_build_cache_loads_no_command_code(english_dir, chinese_csv, cache_path,
                                                       bare_modules):
    code, modules = loaded_modules("build-cache", "--english-dir", english_dir,
                                   "--chinese-csv", chinese_csv, "--out", cache_path)
    assert code == "0"
    assert {"namecensus.cache", "namecensus.corpus"} <= modules
    assert modules & (NOT_ON_THE_CHECK_PATH - bare_modules) == set()


def command_argv(tmp_path, cache_path, command):
    """The arguments of `command` on a two-name list and its inputs."""
    names = tmp_path / "names.txt"
    names.write_text("Hua Zhao\n王娟\n", encoding="utf-8")
    gold = tmp_path / "gold.csv"
    gold.write_text("name,gender\nHua Zhao,Female\n", encoding="utf-8")
    results = tmp_path / "results.csv"
    results.write_text("item,name,gender\n1,Hua Zhao,Female\n", encoding="utf-8")
    return {
        "predict": ["predict", "--cache", cache_path, "--in", names,
                    "--out", tmp_path / "out.csv"],
        "predict-chart": ["predict", "--cache", cache_path, "--in", names,
                          "--out", tmp_path / "out.csv", "--chart-json", tmp_path / "c.json",
                          "--chart-svg", tmp_path / "c.svg"],
        "eval": ["eval", "--cache", cache_path, "--gold", gold],
        "chart": ["chart", "--results", results, "--json", tmp_path / "c.json",
                  "--svg", tmp_path / "c.svg"],
    }[command]


def test_predict_without_chart_loads_no_chart_code(tmp_path, cache_path, bare_modules):
    code, modules = loaded_modules(*command_argv(tmp_path, cache_path, "predict"))
    assert code == "0"
    assert {"namecensus.batchio", "namecensus.classifier"} <= modules
    assert "namecensus.report" not in modules
    assert "namecensus.namesplit" not in modules  # kept for the benchmark only
    assert "dataclasses" not in modules - bare_modules


@pytest.mark.parametrize("command", ["predict-chart", "eval", "chart"])
def test_commands_load_no_dataclasses(tmp_path, cache_path, bare_modules, command):
    code, modules = loaded_modules(*command_argv(tmp_path, cache_path, command))
    assert code == "0"
    assert "namecensus.report" in modules
    assert "namecensus.namesplit" not in modules
    assert "dataclasses" not in modules - bare_modules


# The cache's CRC-32 is checked with zlib; only the corpus digest needs hashlib,
# whose OpenSSL backend costs some 3.6 MB of peak memory.
@pytest.mark.parametrize("command", ["predict", "predict-chart", "eval", "chart"])
def test_commands_load_no_openssl(tmp_path, cache_path, bare_modules, command):
    code, modules = loaded_modules(*command_argv(tmp_path, cache_path, command))
    assert code == "0"
    assert {"hashlib", "_hashlib"} & (modules - bare_modules) == set()


# The shipped surname list is a plain file beside the package, read as every
# other file is. A package that `site` loads may import these modules itself,
# as `certifi` imports `importlib.resources`, so they are checked without it.
@pytest.mark.parametrize("command", ["predict", "predict-chart", "eval", "chart"])
def test_commands_load_no_zip_safe_reader(tmp_path, cache_path, command):
    code, modules = loaded_modules(*command_argv(tmp_path, cache_path, command), site=False)
    assert code == "0"
    assert "site" not in modules
    assert {"importlib.resources", "zipfile", "tempfile"} & modules == set()


def test_build_cache_writes_and_checks_the_corpus_sha256(tmp_path, capsys):
    english = tmp_path / "english"
    english.mkdir()
    (english / "yob2014.txt").write_text("Hua,F,80\nPhil,M,160\n", encoding="utf-8")
    (english / "yob2015.txt").write_text("Hua,M,20\n", encoding="utf-8")
    chinese = tmp_path / "chars.csv"
    chinese.write_text("char,female,male\n娟,30,1\n", encoding="utf-8")
    # Each file's name and bytes, each followed by a NUL, in name order.
    sha = hashlib.sha256()
    for path in sorted([*english.iterdir(), chinese], key=lambda p: p.name):
        sha.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    reference = sha.hexdigest()
    out = tmp_path / "m.ncm"
    argv = ["build-cache", "--english-dir", str(english), "--chinese-csv", str(chinese),
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("wrote cache")
    assert read_source_digest(out) == reference
    # Another model under the reference digest is up to date; under any other, rebuilt.
    empty = CountModel.from_entries({})
    save_cache(empty, empty, out, source_digest=reference)
    stale = out.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == f"cache up to date: {out}\n"
    assert out.read_bytes() == stale
    save_cache(empty, empty, out, source_digest="00" * 32)
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("wrote cache")
    assert read_source_digest(out) == reference


def test_import_loads_no_submodule():
    out = _python("-c", "import sys, namecensus; print(*sorted(sys.modules))")
    assert [m for m in out.split() if m.startswith("namecensus.")] == []


def test_package_root_defines_no_public_name():
    # No public name, nor a table of lazy ones: only `__version__` and Python's own.
    names = _python("-c", "import namecensus; print(*vars(namecensus))").split()
    assert [name for name in names if not name.startswith("__")] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'namecensus' has no attribute 'nope'$"):
        namecensus.nope
    assert not hasattr(namecensus, "nope")
    with pytest.raises(ImportError):
        from namecensus import nope  # noqa: F401
