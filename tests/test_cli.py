import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import quiverinv
from quiverinv import charclass, cli, invariants, vertexalg
from quiverinv.cli import main
from quiverinv.quiver import Quiver, edge_deletion_morphism, shown

from . import oracles


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def qfiles(tmp_path):
    paths = {}
    for name, obj in [
        ("a2", oracles.a2_json()),
        ("k2", oracles.kronecker_json(2)),
        ("k3", oracles.kronecker_json(3)),
        ("c3", oracles.cyclic3_json()),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def test_euler_frozen_values(qfiles):
    code, out = run(["euler", "--quiver", qfiles["k3"], "--dimvec", '{"v":2,"w":3}'])
    assert code == 0
    assert json.loads(out) == oracles.K3_EULER_D23


def test_euler_two_arguments(qfiles):
    code, out = run(
        ["euler", "--quiver", qfiles["a2"], "--dimvec", '{"v":1}', "--dimvec2", '{"w":1}']
    )
    assert code == 0
    obj = json.loads(out)
    qjson = oracles.a2_json()
    d, e = {"v": 1}, {"w": 1}
    chi_q = oracles.euler_form_oracle(qjson, d, e)
    assert obj == {
        "chi_Q": str(chi_q),
        "chi": str(oracles.sym_form_oracle(qjson, d, e)),
        "epsilon": str((-1) ** (chi_q % 2)),
    }


def test_ucoeff_same_slope_is_identity(qfiles):
    code, out = run(
        [
            "ucoeff",
            "--quiver", qfiles["a2"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"1","w":"0"}',
            "--slope2", '{"v":"1","w":"0"}',
        ]
    )
    assert code == 0
    obj = json.loads(out)
    for entry in obj["entries"]:
        want = "1" if len(entry["tuple"]) == 1 else "0"
        assert entry["U"] == want
    assert obj["lie_words"] == [{"letters": [{"v": 1, "w": 1}], "coefficient": "1"}]


def test_ucoeff_crossing_matches_frozen_table(qfiles):
    code, out = run(
        [
            "ucoeff",
            "--quiver", qfiles["a2"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"0","w":"1"}',
            "--slope2", '{"v":"1","w":"0"}',
        ]
    )
    assert code == 0
    obj = json.loads(out)
    by_tuple = {
        tuple(tuple(sorted(p.items())) for p in e["tuple"]): e for e in obj["entries"]
    }
    two_part = {
        ("v", "w"): by_tuple[((("v", 1),), (("w", 1),))],
        ("w", "v"): by_tuple[((("w", 1),), (("v", 1),))],
    }
    for key, entry in two_part.items():
        assert entry["S"] == str(oracles.S_LO_TO_HI[key])
        assert entry["U"] == str(oracles.U_LO_TO_HI[key])


def test_invariant_point_class(qfiles):
    code, out = run(
        [
            "invariant",
            "--quiver", qfiles["a2"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"1","w":"0"}',
        ]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dimvec"] == {"v": 1, "w": 1}
    assert obj["degree"] == 0
    assert obj["canonical"] == [{"basis_index": 0, "value": "1"}]

    code, out = run(
        [
            "invariant",
            "--quiver", qfiles["a2"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"0","w":"1"}',
        ]
    )
    assert code == 0
    assert json.loads(out)["canonical"] == []


def test_invariant_accepts_plain_rationals(qfiles):
    code, out = run(
        [
            "invariant",
            "--quiver", qfiles["k2"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"1/2","w":0}',
        ]
    )
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_output_is_deterministic(qfiles):
    argv = [
        "invariant",
        "--quiver", qfiles["k3"],
        "--dimvec", '{"v":2,"w":1}',
        "--slope", '{"v":"1","w":"0"}',
    ]
    code1, out1 = run(argv)
    code2, out2 = run(argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_cache_flag_and_environment(qfiles, tmp_path, monkeypatch):
    cdir = tmp_path / "cache"
    argv = [
        "invariant",
        "--quiver", qfiles["k3"],
        "--dimvec", '{"v":1,"w":1}',
        "--slope", '{"v":"1","w":"0"}',
        "--cache", str(cdir),
    ]
    code, out = run(argv)
    assert code == 0
    entries = list(cdir.glob("*.json"))
    assert entries
    stamp = entries[0].read_bytes()
    code, out2 = run(argv)
    assert code == 0 and out2 == out
    assert entries[0].read_bytes() == stamp

    envdir = tmp_path / "envcache"
    monkeypatch.setenv("QUIVERINV_CACHE", str(envdir))
    code, out3 = run(argv[:-2])
    assert code == 0 and out3 == out
    assert list(envdir.glob("*.json"))


def test_cache_path_that_is_no_directory_exits_2(qfiles, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [
        "invariant",
        "--quiver", qfiles["k3"],
        "--dimvec", '{"v":1,"w":1}',
        "--slope", '{"v":"1","w":"0"}',
    ]
    for path in (blocker, blocker / "below"):
        code, out = run(argv + ["--cache", str(path)])
        err = json.loads(out)
        assert code == 2 and err["kind"] == "input" and repr(str(path)) in err["error"]
    monkeypatch.setenv("QUIVERINV_CACHE", str(blocker))
    code, out = run(argv)
    assert code == 2 and json.loads(out)["kind"] == "input"


def test_cache_write_failure_exits_2(qfiles, tmp_path, monkeypatch):
    # a full disk is an input fault of the cache directory: one JSON line
    # naming it and exit 2, not a traceback
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(invariants.tempfile, "mkstemp", full)
    cdir = tmp_path / "cache"
    code, out = run([
        "invariant", "--quiver", qfiles["k3"], "--dimvec", '{"v":1,"w":1}',
        "--slope", '{"v":1,"w":0}', "--cache", str(cdir),
    ])
    err = json.loads(out)
    assert code == 2 and out.count("\n") == 1 and err["kind"] == "input"
    assert repr(str(cdir)) in err["error"] and os.strerror(errno.ENOSPC) in err["error"]
    assert list(cdir.iterdir()) == []


@pytest.mark.parametrize("corrupt", [
    lambda rep, key: {**rep, key: True},
    lambda rep, key: {**rep, "c[v,7]": "1"},
    lambda rep, key: {**rep, "c[v,1]": "1"},  # weight 1 in a weight-2 class
], ids=["value-true", "generator-out-of-range", "wrong-weight"])
def test_malformed_cache_representative_names_the_entry(qfiles, tmp_path, corrupt):
    argv = [
        "invariant", "--quiver", qfiles["k3"], "--dimvec", '{"v":1,"w":1}',
        "--slope", '{"v":1,"w":0}', "--cache", str(tmp_path / "cache"),
    ]
    assert run(argv)[0] == 0
    (path,) = (tmp_path / "cache").glob("*.json")
    entry = json.loads(path.read_text())
    rep = entry["representative"]
    entry["representative"] = corrupt(rep, next(iter(rep)))
    path.write_text(json.dumps(entry))
    code, out = run(argv)
    err = json.loads(out)
    assert code == 2 and err["kind"] == "input"
    assert err["error"].startswith(f"cache entry {path.name} is malformed: ")


def test_cache_entry_of_another_class_exits_2(qfiles, tmp_path):
    # an entry under another key's file name is refused, not served: K3 (2,2)
    # has 5 coordinates at {v:1,w:0} and none at {v:0,w:1}
    argv = ["invariant", "--quiver", qfiles["k3"], "--dimvec", '{"v":2,"w":2}']
    hi = argv + ["--slope", '{"v":1,"w":0}', "--cache", str(tmp_path / "hi")]
    lo = argv + ["--slope", '{"v":0,"w":1}', "--cache", str(tmp_path / "lo")]
    assert run(hi)[0] == 0
    code, out = run(lo)
    assert code == 0 and json.loads(out)["canonical"] == []
    (entry_hi,) = (tmp_path / "hi").glob("*.json")
    (entry_lo,) = (tmp_path / "lo").glob("*.json")
    entry_lo.write_text(entry_hi.read_text())
    code, out = run(lo)
    assert code == 2
    assert json.loads(out) == {"error": f"cache entry {entry_lo.name} is for another class", "kind": "input"}


def test_hostile_json_input_exits_2_naming_its_source(qfiles, tmp_path):
    # nesting past the recursion limit and bytes that are not UTF-8 are
    # input errors naming the file or option, not a traceback or a bare
    # codec message
    deep, latin = tmp_path / "deep.json", tmp_path / "latin.json"
    deep.write_text("[" * 100_000)
    latin.write_bytes(b'{"vertices": ["v\xff"], "edges": []}')
    pair = ["pair-check", "--quiver", qfiles["a2"], "--dimvec", '{"v":1,"w":1}', "--slope", '{"v":1,"w":0}']
    for argv, named in [
        (["euler", "--quiver", str(deep), "--dimvec", '{"v":1}'], f"quiver file {shown(str(deep))}"),
        (["euler", "--quiver", str(latin), "--dimvec", '{"v":1}'], f"quiver file {shown(str(latin))}"),
        (["morphism-check", "--morphism", str(deep), "--dimvec", '{"v":1}', "--slope", '{"v":0}'],
         f"morphism file {shown(str(deep))}"),
        (["euler", "--quiver", qfiles["a2"], "--dimvec", "[" * 20_000], "dimension vector"),
        (pair + ["--framing", '{"a":' * 20_000], "framing"),
    ]:
        code, out = run(argv)
        assert code == 2, named
        assert json.loads(out)["kind"] == "input"
        assert json.loads(out)["error"].startswith(f"{named} is not valid JSON: "), out[:200]


@pytest.mark.parametrize("content", [b"[" * 100_000, b'{"format": "\xff"}'], ids=["deep", "not-utf-8"])
def test_hostile_cache_entry_names_the_entry(qfiles, tmp_path, content):
    argv = [
        "invariant", "--quiver", qfiles["k3"], "--dimvec", '{"v":1,"w":1}',
        "--slope", '{"v":1,"w":0}', "--cache", str(tmp_path / "cache"),
    ]
    assert run(argv)[0] == 0
    (path,) = (tmp_path / "cache").glob("*.json")
    path.write_bytes(content)
    code, out = run(argv)
    assert code == 2 and json.loads(out)["kind"] == "input"
    assert json.loads(out)["error"].startswith(f"unreadable cache entry {path.name}: "), out[:200]


FROZEN_OUTPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.json"


@pytest.mark.parametrize("label,dimvec", [
    ("invariant k3 3,3 jobs 2", '{"v":3,"w":3}'),
    ("invariant k3 4,2", '{"v":4,"w":2}'),
])
def test_invariant_matches_frozen_output(qfiles, monkeypatch, label, dimvec):
    # stdout frozen by perfbench/freeze_oracle.py; --jobs does not change it
    want = json.loads(FROZEN_OUTPUTS.read_text())["cli-cache"][label]
    monkeypatch.delenv("QUIVERINV_CACHE", raising=False)
    code, out = run(
        ["invariant", "--quiver", qfiles["k3"], "--dimvec", dimvec, "--slope", '{"v":1,"w":0}']
    )
    assert code == 0
    assert out == want


NO_SYMPY_MAIN = (
    "import sys\n"
    "sys.modules['sympy'] = None  # any import of sympy now raises\n"
    "from quiverinv.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_invariant_cache_reduces_coordinates_once(qfiles, tmp_path, monkeypatch):
    # the cache put (cold) or get (warm) and the printed answer share one
    # reduction of the class's coordinates
    calls = []
    echelon = vertexalg._translation_echelon

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    monkeypatch.setattr(vertexalg, "_translation_echelon", counted)
    argv = [
        "invariant", "--quiver", qfiles["k3"], "--dimvec", '{"v":2,"w":2}',
        "--slope", '{"v":1,"w":0}', "--cache", str(tmp_path / "cache"),
    ]
    outs = []
    for _ in range(2):  # the first run fills the cache, the second reads it
        calls.clear()
        code, out = run(argv)
        assert code == 0 and len(calls) == 1
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["canonical"]


def test_runtime_does_not_import_sympy(qfiles, tmp_path):
    src = str(Path(quiverinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, dimvec in (("k2", '{"v":1,"w":1}'), ("k3", '{"v":2,"w":2}')):
        argv = [
            "invariant",
            "--quiver", qfiles[name],
            "--dimvec", dimvec,
            "--slope", '{"v":"1","w":"0"}',
        ]
        code, want = run(argv)
        assert code == 0
        for _ in range(2):  # the first run fills the cache, the second reads it
            proc = subprocess.run(
                [sys.executable, "-c", NO_SYMPY_MAIN, *argv, "--cache", str(tmp_path / name)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == want


NO_POOL_MAIN = (
    "import sys\n"
    "from quiverinv.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "pool = {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)\n"
    "print(sorted(pool), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_jobs_flag_starts_no_process_pool(qfiles):
    src = str(Path(quiverinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [
        "invariant",
        "--quiver", qfiles["k3"],
        "--dimvec", '{"v":2,"w":1}',
        "--slope", '{"v":"1","w":"0"}',
    ]
    code, want = run(argv)
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-c", NO_POOL_MAIN, *argv, "--jobs", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"
    assert proc.stdout == want


FAILING_CHECK_MAIN = (
    "import sys\n"
    "from quiverinv import cli\n"
    "cli.check_morphism_identity = lambda *a, **k: False\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("kind, code", [("invariant", 0), ("failed check", 4), ("input", 2)])
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(qfiles, tmp_path, kind, code):
    # the reader closes stdout before the command writes: the command still
    # exits with its own code, with no traceback on stderr
    src = str(Path(quiverinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    k2 = Quiver.from_json(oracles.kronecker_json(2))
    mpath = tmp_path / "morphism.json"
    mpath.write_text(json.dumps(edge_deletion_morphism(k2, ["a0"]).to_json()))
    cli_main, invariant = ["-m", "quiverinv.cli"], ["invariant", "--quiver", qfiles["k3"]]
    argv = {
        "invariant": [*cli_main, *invariant, "--dimvec", '{"v":2,"w":2}'],
        "failed check": ["-c", FAILING_CHECK_MAIN, "morphism-check", "--morphism", str(mpath), "--dimvec", '{"v":1,"w":1}'],
        "input": [*cli_main, *invariant, "--dimvec", '{"v":-1}'],
    }[kind]
    proc = subprocess.Popen(
        [sys.executable, *argv, "--slope", '{"v":"1","w":"0"}'], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert err == b""


def test_wallcross_check_command(qfiles):
    code, out = run(
        [
            "wallcross-check",
            "--quiver", qfiles["k3"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"1","w":"0"}',
            "--slope2", '{"v":"0","w":"1"}',
        ]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["class"]["canonical"] == []


def test_morphism_check_command(qfiles, tmp_path):
    k2 = Quiver.from_json(oracles.kronecker_json(2))
    lam = edge_deletion_morphism(k2, ["a0"])
    mpath = tmp_path / "morphism.json"
    mpath.write_text(json.dumps(lam.to_json()))
    code, out = run(
        [
            "morphism-check",
            "--morphism", str(mpath),
            "--dimvec", '{"v":2,"w":1}',
            "--slope", '{"v":"1","w":"0"}',
        ]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["pushforward"] == {"v": 2, "w": 1}
    assert obj["source_factor"] == "2" and obj["target_factor"] == "2"


def test_pair_check_command(qfiles):
    code, out = run(
        [
            "pair-check",
            "--quiver", qfiles["a2"],
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"1","w":"0"}',
            "--framing", '{"v":1,"w":1}',
        ]
    )
    assert code == 0
    assert out == (
        '{"equal":true,"injective":true,"ok":true,"dimvec":{"v":1,"w":1},'
        '"framed_class":{"inf":1,"v":1,"w":1},"epsilon":"1/8",'
        '"framed_slope":{"inf":"5/8","v":"1","w":"0"}}\n'
    )


def test_pair_check_frames_quivers_using_the_default_ids(tmp_path):
    # a quiver may use "inf" or fr_<v>_<k> itself: the framing takes fresh ids
    a2_out = (
        '{"equal":true,"injective":true,"ok":true,"dimvec":{"v":1,"w":1},'
        '"framed_class":{"inf":1,"v":1,"w":1},"epsilon":"1/8",'
        '"framed_slope":{"inf":"5/8","v":"1","w":"0"}}\n'
    )
    cases = [
        (
            {"vertices": ["inf", "w"], "edges": [{"id": "e1", "from": "inf", "to": "w"}]},
            "inf",
            '{"equal":true,"injective":true,"ok":true,"dimvec":{"inf":1,"w":1},'
            '"framed_class":{"inf":1,"inf_1":1,"w":1},"epsilon":"1/8",'
            '"framed_slope":{"inf":"1","inf_1":"5/8","w":"0"}}\n',
        ),
        (
            {"vertices": ["v", "w"], "edges": [{"id": "fr_v_1", "from": "v", "to": "w"}]},
            "v",
            a2_out,
        ),
    ]
    for k, (obj, v, want) in enumerate(cases):
        path = tmp_path / f"q{k}.json"
        path.write_text(json.dumps(obj))
        code, out = run([
            "pair-check", "--quiver", str(path),
            "--dimvec", json.dumps({v: 1, "w": 1}),
            "--slope", json.dumps({v: "1", "w": "0"}),
            "--framing", json.dumps({v: 1, "w": 1}),
        ])
        assert (code, out) == (0, want)


def test_selftest_command():
    code, out = run(["selftest", "--max-size", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["max_size"] == 3


@pytest.mark.parametrize("budget", ["2", "0", "-5"])
def test_selftest_budget_below_3_exits_2(budget):
    # below 3 some checks could not run, so no report is given at all
    code, out = run(["selftest", "--max-size", budget])
    assert code == 2
    assert json.loads(out)["kind"] == "input"


def test_malformed_input_exits_2(qfiles, tmp_path):
    cases = [
        ["euler", "--quiver", qfiles["a2"], "--dimvec", "{not json"],
        ["euler", "--quiver", str(tmp_path / "missing.json"), "--dimvec", "{}"],
        ["euler", "--quiver", qfiles["a2"], "--dimvec", '{"z":1}'],
        ["euler", "--quiver", qfiles["a2"]],  # required option absent
        ["invariant", "--quiver", qfiles["a2"], "--dimvec", '{"v":1}', "--slope", '{"v":0.5,"w":0}'],
        ["invariant", "--quiver", qfiles["a2"], "--dimvec", '{"v":1,"w":1}', "--slope", '["v"]'],
        ["no-such-command"],
        [],  # no command at all
        ["euler", "--quiver", qfiles["a2"], "--dimvec", '{"v":1}', "--no-such-option"],
        ["euler", "--quiver", qfiles["a2"], "--dim", '{"v":1}'],  # abbreviations are refused
        ["euler", "--quiver", qfiles["a2"], "--dimvec"],  # option value missing
        ["selftest", "--max-size", "two"],
        ["selftest", "--jobs", "1.5"],
    ]
    for argv in cases:
        code, out = run(argv)
        assert code == 2, argv
        assert json.loads(out)["kind"] == "input"

    bad = tmp_path / "bad.json"
    euler_argv = ["euler", "--quiver", str(bad), "--dimvec", '{"v":1}']
    check_argv = [
        "morphism-check", "--morphism", str(bad), "--dimvec", '{"v":1}', "--slope", '{"v":0,"w":1}'
    ]
    morphism = edge_deletion_morphism(Quiver.from_json(oracles.kronecker_json(2)), ["a0"]).to_json()
    for argv, obj in [
        (euler_argv, {"vertices": ["v"], "edges": [["v", "v", "e"]]}),
        (euler_argv, {"vertices": ["v"], "edges": [{"id": "e", "from": ["v"], "to": "v"}]}),
        (check_argv, {**morphism, "vertex_map": {"v": ["v"], "w": "w"}}),
        (check_argv, {**morphism, "edge_pairs": [[["a1"], "a1"]]}),
        (check_argv, {**morphism, "edge_pairs": [["a1", {"a1": 1}]]}),
    ]:
        bad.write_text(json.dumps(obj))
        code, out = run(argv)
        assert code == 2, obj
        assert json.loads(out)["kind"] == "input"

    # an unknown option is named before a missing required one
    for argv, named in [
        (["euler", "--quiver", qfiles["a2"], "--dim", "{}"], "unrecognized arguments: --dim {}"),
        (["-h"], "unrecognized arguments: -h"),
        (["invariant", "-h"], "unrecognized arguments: -h"),
        (["euler", "--quiver", qfiles["a2"]], "required: --dimvec"),
        ([], "required: COMMAND"),
        (["selftest", "--max-size", "two", "--bogus"], "invalid int value: 'two'"),
    ]:
        code, out = run(argv)
        assert code == 2, argv
        assert named in json.loads(out)["error"], argv


COMMANDS = (
    "euler", "ucoeff", "invariant", "wallcross-check", "morphism-check", "pair-check", "selftest",
)


def test_slope_with_a_huge_exponent_exits_2_quickly(qfiles):
    # "1e4000000" would build a four-million-digit integer; it is refused
    # before any arithmetic
    started = time.perf_counter()
    code, out = run(
        ["invariant", "--quiver", qfiles["a2"], "--dimvec", '{"v":1,"w":1}',
         "--slope", '{"v":"1e4000000","w":"0"}']
    )
    assert code == 2 and json.loads(out)["kind"] == "input"
    assert time.perf_counter() - started < 0.5


def test_input_errors_cut_long_values(qfiles, tmp_path):
    # each echoed value is cut to a prefix and a note of its length, so the
    # error line stays short however long the offending input
    nines, name = "9" * 100_000, "x" * 100_000
    cases = [
        ("--slope", json.dumps({"v": nines, "w": "0"})),
        ("--slope", json.dumps({name: "1", "v": "1", "w": "0"})),
        ("--dimvec", json.dumps({"v": 1, "w": nines})),
        ("--dimvec", json.dumps([nines])),
        ("--max-size", nines),
        ("--quiver", str(tmp_path / name)),
    ]
    base = {"--quiver": qfiles["k3"], "--dimvec": '{"v":1,"w":1}', "--slope": '{"v":"1","w":"0"}'}
    for flag, value in cases:
        code, out = run(["invariant", *(x for kv in {**base, flag: value}.items() for x in kv)])
        assert code == 2 and json.loads(out)["kind"] == "input", flag
        assert len(out.encode()) < 1000 and "characters)" in out, (flag, out[:200])
    # a short value is echoed whole
    code, out = run(["invariant", "--quiver", qfiles["k3"], "--dimvec", '{"v":1,"w":1}',
                     "--slope", '{"v":"x","w":"0"}'])
    assert (code, out) == (2, '{"error":"not a rational number: \'x\'","kind":"input"}\n')


def test_help_exits_0():
    code, out = run(["--help"])
    assert code == 0
    assert all(name in out for name in COMMANDS)
    code, out = run(["invariant", "--help"])
    assert code == 0
    for option in ("--quiver", "--dimvec", "--slope", "--cache", "--jobs", "--max-size"):
        assert option in out


def _eager_parser():
    """Every command with all of its options, built up front: the help texts
    that building only the invoked command's options must reproduce."""
    parser = cli._Parser(
        prog="quiverinv",
        description="Exact invariant classes of quiver moduli and their wall-crossing.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, command, options in cli._COMMANDS:
        doc = command.__doc__ or ""
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc)
        for flag in options:
            sub.add_argument(flag, **cli._OPTIONS[flag])
    commands.choices["selftest"].set_defaults(max_size=4)
    return parser, commands.choices


def test_help_texts_match_the_eager_parser():
    parser, subs = _eager_parser()
    assert run(["--help"]) == (0, parser.format_help())
    assert set(subs) == set(COMMANDS)
    for name, sub in subs.items():
        assert run([name, "--help"]) == (0, sub.format_help()), name


def test_parser_adds_the_options_of_the_invoked_command_only():
    argv = ["invariant", "--quiver", "q.json", "--dimvec", "{}", "--slope", "{}"]
    assert cli._parser("invariant").parse_args(argv).run is cli.invariant_cmd
    with pytest.raises(ValueError, match="unrecognized arguments: --quiver"):
        cli._parser("euler").parse_args(argv)


# SHA-256 of the stdout of each command as the per-word bracket evaluator
# printed it; grouping the bracket sums must not change a byte.  ucoeff's
# lie_words are as the first-letter normalization writes them: other bracket
# words than the left-nested basis gave, with the same word expansion
STDOUT_SHA256 = {
    "euler": "a968ff19ad0c43f71ba480df4459aefadf6dc854039315bfc675652cedd139b5",
    "ucoeff": "86ea198afa23698c91eb0c4b7db56b34b7fa2488187caa77d3529b6beeea7bb7",
    "invariant": "a5bd9a50dc20857c0661b49a886ee5219643481846e24ead3d5efe46016c49d4",
    "wallcross-check": "d16cc0ae57a473853aca8be56f0642043a415de4a18f3c0fbed4283695e8bba3",
    "morphism-check": "fe3d89f093875765c739e487cac9d37534a524649ab64995dbd7249c7b18e14d",
    "pair-check": "ba9a0d59a2e8c8043d29c99a2dbb170003e0348f550ff0ae27fa5037312b4323",
    "selftest": "d4a354e8f4ab92c206c70de23a5fac18e761248d88d5ae1464dd70cc78d4730a",
}


def test_successful_stdout_is_unchanged(qfiles, tmp_path):
    lam = edge_deletion_morphism(Quiver.from_json(oracles.kronecker_json(2)), ["a0"])
    mpath = tmp_path / "morphism.json"
    mpath.write_text(json.dumps(lam.to_json()))
    hi, lo = '{"v":"1","w":"0"}', '{"v":"0","w":"1"}'
    pair = ["--dimvec", '{"v":2,"w":2}', "--slope", hi, "--framing", '{"v":1,"w":1}']
    cases = [
        ("euler", ["--quiver", qfiles["k3"], "--dimvec", '{"v":2,"w":3}']),
        ("ucoeff", ["--quiver", qfiles["k2"], "--dimvec", '{"v":2,"w":1}',
                    "--slope", lo, "--slope2", hi]),
        ("invariant", ["--quiver", qfiles["k3"], "--dimvec", '{"v":3,"w":3}', "--slope", hi]),
        ("wallcross-check", ["--quiver", qfiles["k3"], "--dimvec", '{"v":3,"w":2}',
                             "--slope", hi, "--slope2", lo]),
        ("morphism-check", ["--morphism", str(mpath), "--dimvec", '{"v":2,"w":2}', "--slope", hi]),
        ("pair-check", ["--quiver", qfiles["a2"]] + pair),
        ("pair-check", ["--quiver", qfiles["k2"]] + pair),
        ("selftest", []),
    ]
    for name, argv in cases:
        code, out = run([name] + argv)
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name], argv


def test_option_value_after_equals_sign(qfiles):
    argv = ["invariant", "--quiver", qfiles["k2"], "--dimvec", '{"v":1,"w":1}']
    code, spaced = run(argv + ["--slope", '{"v":"1","w":"0"}'])
    assert code == 0
    assert run(argv + ['--slope={"v":"1","w":"0"}']) == (0, spaced)


def test_cli_import_leaves_click_out():
    src = str(Path(quiverinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quiverinv.cli; print('click' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


IDS = ["v", "w", "a0", "a1", "1", "1/2"]  # values that fit some field of the inputs
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(IDS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(IDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _positions(obj, path=()):
    """The path of keys and indices to every value within obj, obj included."""
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _positions(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


@given(st.data())
def test_any_field_of_the_json_inputs_keeps_the_exit_code_contract(data):
    # one field of a valid quiver, morphism or cache entry replaced by any
    # JSON value: an exit code and one JSON object, never a traceback
    k2 = Quiver.from_json(oracles.kronecker_json(2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        cache = Path(tmp) / "cache"
        kind = data.draw(st.sampled_from(["quiver", "morphism", "cache"]))
        if kind == "quiver":
            valid = oracles.kronecker_json(2)
            argv = ["euler", "--quiver", str(path), "--dimvec", '{"v":1}']
        elif kind == "morphism":
            valid = edge_deletion_morphism(k2, ["a0"]).to_json()
            argv = [
                "morphism-check", "--morphism", str(path), "--dimvec", '{"v":1}',
                "--slope", '{"v":1,"w":0}',
            ]
        else:
            path.write_text(json.dumps(oracles.kronecker_json(3)))
            argv = [
                "invariant", "--quiver", str(path), "--dimvec", '{"v":1,"w":1}',
                "--slope", '{"v":1,"w":0}', "--cache", str(cache),
            ]
            assert run(argv)[0] == 0
            (path,) = cache.glob("*.json")
            valid = json.loads(path.read_text())
        where = data.draw(st.sampled_from(list(_positions(valid))))
        path.write_text(json.dumps(_replaced(valid, where, data.draw(JSON_VALUES))))
        code, out = run(argv)
    assert code in (0, 2, 3), out
    assert out.count("\n") == 1 and isinstance(json.loads(out), dict)


def test_cycle_exits_3(qfiles):
    code, out = run(
        [
            "invariant",
            "--quiver", qfiles["c3"],
            "--dimvec", '{"x":1}',
            "--slope", '{"x":"0","y":"0","z":"0"}',
        ]
    )
    assert code == 3
    assert json.loads(out)["kind"] == "acyclicity"


def test_failed_check_exits_4(qfiles, tmp_path, monkeypatch):
    # the identity itself holds on every valid input, so exercise the
    # reporting path by stubbing the checker
    monkeypatch.setattr("quiverinv.cli.check_morphism_identity", lambda *a, **k: False)
    k2 = Quiver.from_json(oracles.kronecker_json(2))
    lam = edge_deletion_morphism(k2, ["a0"])
    mpath = tmp_path / "morphism.json"
    mpath.write_text(json.dumps(lam.to_json()))
    code, out = run(
        [
            "morphism-check",
            "--morphism", str(mpath),
            "--dimvec", '{"v":1,"w":1}',
            "--slope", '{"v":"1","w":"0"}',
        ]
    )
    assert code == 4
    assert json.loads(out)["equal"] is False


def test_inexact_newton_division_exits_4(qfiles, monkeypatch):
    # the Chern atoms' integer Newton step divides exactly on every valid
    # input, so force a remainder: the guard must surface as an internal error
    monkeypatch.setattr(vertexalg, "_PLAN_MEMO", {})
    monkeypatch.setattr(charclass, "divmod", lambda a, b: (a // b, 1), raising=False)
    # (a bracket with a unit right factor caps with no atom class, so the
    # command is one whose transform brackets classes of positive degree)
    code, out = run(
        [
            "wallcross-check",
            "--quiver", qfiles["k3"],
            "--dimvec", '{"v":3,"w":2}',
            "--slope", '{"v":"1","w":"0"}',
            "--slope2", '{"v":"0","w":"1"}',
        ]
    )
    assert code == 4
    obj = json.loads(out)
    assert obj["kind"] == "internal"
    assert "not divisible" in obj["error"]
