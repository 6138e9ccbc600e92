"""The command-line front end: verdicts, JSON schema, exit codes."""

import json

import pytest

from twinkit.cli import main
from twinkit.words import Word, equal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(["--output", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_reduce_text(capsys):
    code, out = run(capsys, "reduce", "--n", "4", "s2 s1 s3 s2 s2 s3")
    assert code == 0
    assert 'normal_form="s2 s1"' in out


def test_reduce_json_round_trips(capsys):
    code, payload = run_json(capsys, "reduce", "--n", "4", "s2 s1 s3 s2 s2 s3")
    assert code == 0
    assert set(payload) == {"verdict", "witness", "normal_form", "details"}
    parsed = Word.parse(4, payload["normal_form"])
    assert equal(parsed, Word.parse(4, "s2 s1 s3 s2 s2 s3"))


def test_equal_negative_verdict_exits_zero(capsys):
    code, payload = run_json(capsys, "equal", "--n", "3", "s1 s2", "s2 s1")
    assert code == 0
    assert payload["verdict"] is False


def test_certificate_moves_replay(capsys):
    code, payload = run_json(capsys, "certificate", "--n", "3", "s1 s1", "e")
    assert code == 0
    assert payload["details"]["moves"] == [{"op": "delete", "pos": 0, "letter": 1}]


def test_conjugate_with_witness(capsys):
    code, payload = run_json(capsys, "conjugate", "--n", "3", "s1 s2", "s2 s1", "--witness")
    assert code == 0
    assert payload["verdict"] is True
    g = Word.parse(3, payload["witness"])
    assert len(g.letters) >= 1


def test_destab_recovers_hexagon_core(capsys):
    code, payload = run_json(
        capsys, "destab", "--n", "4", "--move", "m4", "s2 s3 s2 s3 s2 s3 s1 s2 s1"
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["details"]["beta"] == "s1 s2 s1 s2 s1 s2"
    assert payload["details"]["i"] == 2


def test_destab_oracle_agrees(capsys):
    _, direct = run_json(capsys, "destab", "--n", "4", "--move", "m3", "s1 s2 s3 s2 s3")
    _, oracle = run_json(
        capsys, "destab", "--n", "4", "--move", "m3", "--oracle", "s1 s2 s3 s2 s3"
    )
    assert direct["verdict"] == oracle["verdict"] is True
    assert direct["details"]["beta"] == oracle["details"]["beta"]


def test_stab_and_shift(capsys):
    code, payload = run_json(capsys, "stab", "--n", "3", "--move", "m3", "--i", "2", "s1 s2")
    assert code == 0
    assert payload["details"]["word"] == "s1 s2 s3 s2 s3"
    code, payload = run_json(capsys, "shift", "--n", "4", "s1 s2")
    assert payload["normal_form"] == "s2 s3"
    code, payload = run_json(capsys, "shift", "--n", "4", "--inverse", "s2 s3")
    assert payload["normal_form"] == "s1 s2"


def test_split_components_permutation_pure(capsys):
    _, payload = run_json(capsys, "split", "--n", "3", "s1")
    assert payload["verdict"] is True and payload["details"]["reason"] == 1
    _, payload = run_json(capsys, "components", "--n", "3", "e")
    assert payload["verdict"] == 3
    _, payload = run_json(capsys, "permutation", "--n", "3", "s1")
    assert payload["details"]["images"] == [2, 1, 3]
    _, payload = run_json(capsys, "pure", "--n", "3", "s1 s2 s1 s2 s1 s2")
    assert payload["verdict"] is True


def test_aut_norm_order_apply(capsys):
    _, payload = run_json(capsys, "aut", "--n", "3", "psi", "norm", "s1 s2 s1")
    assert payload["normal_form"] == "s1 s2 s1 s2 s1 s2"
    _, payload = run_json(capsys, "aut", "--n", "5", "kappa", "order")
    assert payload["verdict"] == 4
    _, payload = run_json(capsys, "aut", "--n", "5", "psi*kappa*kappa", "apply", "s1 s2")
    # composition applies right-to-left; output is the lex-least reduced word
    assert payload["normal_form"] == "s1 s4 s3"
    _, payload = run_json(capsys, "aut", "--n", "3", "inn:s1", "apply", "s2")
    assert payload["normal_form"] == "s1 s2 s1"


def test_twisted_exit_codes(capsys):
    code, payload = run_json(
        capsys, "twisted", "--n", "3", "--aut", "psi", "--x", "s1", "--y", "s2",
        "--radius", "4",
    )
    assert code == 0
    assert payload["verdict"] == "equivalent"
    code, payload = run_json(
        capsys, "twisted", "--n", "3", "--aut", "psi", "--x", "s1", "--y", "s2",
        "--radius", "0",
    )
    assert code == 2
    assert payload["verdict"] == "inconclusive"


def test_twisted_radius_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("TWINKIT_MAX_RADIUS", "2")
    code, payload = run_json(
        capsys, "twisted", "--n", "3", "--aut", "psi", "--x", "s1", "--y", "s2",
        "--radius", "6",
    )
    assert code == 0
    assert payload["details"]["radius_capped_to"] == 2
    assert payload["details"]["radius"] == 2


def test_rinfty_family(capsys):
    _, payload = run_json(capsys, "rinfty", "--n", "5", "--aut", "kappa", "--count", "2")
    assert payload["details"]["family"] == ["s1 s2 s1 s2", "s1 s2 s1 s2 s1 s2 s1 s2"]


def test_endo_subcommands(capsys):
    _, payload = run_json(capsys, "endo", "--n", "3", "apply", "s1 s2 s1 s2")
    assert payload["normal_form"] == "s1 s2 s1 s2 s1 s2 s1 s2"
    code, payload = run_json(capsys, "endo", "--n", "3", "inject-test", "--radius", "5")
    assert code == 0 and payload["verdict"] is True
    _, payload = run_json(capsys, "endo", "--n", "3", "parity", "s2 s1 s2")
    assert payload["details"]["parity"] == [1, 0]


def test_ball_counts(capsys):
    _, payload = run_json(capsys, "ball", "--n", "3", "--radius", "4", "--counts-only")
    assert payload["details"]["layer_counts"] == [1, 2, 2, 2, 2]
    assert payload["details"]["size"] == 9
    assert "elements" not in payload["details"]


def test_render_writes_file(capsys, tmp_path):
    target = tmp_path / "twin.svg"
    code, payload = run_json(
        capsys, "render", "--n", "2", "s1", "--mode", "diagram", "-o", str(target)
    )
    assert code == 0
    data = target.read_bytes()
    assert data.startswith(b"<svg") and len(data) == payload["details"]["bytes"]


def test_heisenberg_check(capsys):
    code, payload = run_json(capsys, "heisenberg-check")
    assert code == 0
    assert payload["verdict"] is True
    assert payload["details"]["candidates_checked"] == 27


def test_parse_errors_exit_one(capsys):
    assert main(["reduce", "--n", "4", "sX"]) == 1
    assert main(["reduce", "--n", "1", "s1"]) == 1
    assert main(["equal", "--n", "3"]) == 1
    assert main(["aut", "--n", "4", "sigma", "order"]) == 1
    assert main(["aut", "--n", "3", "psi", "apply"]) == 1
    capsys.readouterr()


def test_text_and_json_verdicts_agree(capsys):
    corpus = [
        ["equal", "--n", "3", "s1 s2", "s2 s1"],
        ["equal", "--n", "6", "s1 s4", "s4 s1"],
        ["conjugate", "--n", "3", "s1 s2", "s2 s1"],
        ["destab", "--n", "4", "--move", "m3", "s3 s2 s3 s2 s3"],
        ["pure", "--n", "3", "s1"],
        ["split", "--n", "3", "s1 s2 s1 s2"],
        ["twisted", "--n", "3", "--aut", "psi", "--x", "s1", "--y", "s2", "--radius", "4"],
    ]
    for argv in corpus:
        code_t, text = run(capsys, *argv)
        code_j, payload = run_json(capsys, *argv)
        assert code_t == code_j
        verdict = payload["verdict"]
        rendered = str(verdict) if not isinstance(verdict, str) else verdict
        assert f"verdict={rendered}" in text


@pytest.mark.parametrize("flag", ["--help"])
def test_help_does_not_crash(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--n", "3", "--radius", "4"],
        ["twisted", "--n", "3", "--aut", "psi", "--x", "s1", "--y", "s2", "--radius", "4"],
    ],
)
def test_invalid_radius_env_is_named(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("TWINKIT_MAX_RADIUS", value)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: TWINKIT_MAX_RADIUS must be a non-negative integer, got {value!r}\n"
    )


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "s3 s1 s4 s3 s2"],
        ["equal", "s1 s3", "s3 s1"],
        ["certificate", "s4 s1 s4 s2", "s1 s2"],
        ["cyclic-reduce", "s1 s2 s3 s2 s1"],
        ["conjugate", "s1 s2", "s2 s1", "--witness"],
    ],
)
def test_huge_strand_count_matches_small(capsys, argv, output):
    # the word scans are sized by the letters, never by --n
    cmd, *rest = argv
    outputs = []
    for n in (5, 10**18):
        code = main(["--output", output, cmd, "--n", str(n), *rest])
        assert code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
