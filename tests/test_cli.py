import json
import logging

import pytest

from irsbandit.cli import build_parser, main

CONFIG = """
[experiment]
base_seed = 42
periods = 4
replications = 2

[sweep]
policies = cb, greedy
cases = random
phis = 1
omegas = 0.1

[output]
path = {path}
format = csv
"""


def write_config(tmp_path, text=None, name="exp.cfg", out="traces.csv"):
    path = tmp_path / name
    path.write_text(text if text is not None else CONFIG.format(path=tmp_path / out))
    return path


def test_successful_run_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "gap[random" in captured.out
    assert (tmp_path / "traces.csv").exists()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_undecodable_config_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"[sweep]\nomegas = 0.1 \xff\n")
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: ") and "Traceback" not in err


def test_validation_error_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, text="[sweep]\nomegas = 1.5\n")
    assert main(["--config", str(cfg)]) == 1
    assert "sweep.omegas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, flags, key",
    [
        ("base_seed = -1\n", [], "experiment.base_seed"),
        (None, ["--seed", "-1"], "experiment.base_seed"),
        (None, ["--periods", "0"], "experiment.periods"),
        (
            None,
            ["--periods", "100", "--replications", "200"],
            "experiment.enforce_channel_budget",
        ),
        (None, ["--out", ""], "output.path"),
        (
            "[channel]\ntx_power_db = 3070\n[experiment]\nreplications = 1\n",
            [],
            "channel.tx_power_db",
        ),
    ],
    ids=["config-seed", "seed", "periods", "replications", "out", "snr-overflow"],
)
def test_invalid_value_exits_nonzero_naming_section_and_key(
    tmp_path, capsys, text, flags, key
):
    cfg = write_config(tmp_path, text=text)
    assert main(["--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert f"error: {key}: " in err and "Traceback" not in err


def test_flag_overrides_apply(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "override.json"
    code = main(
        [
            "--config", str(cfg),
            "--out", str(out),
            "--format", "json",
            "--seed", "7",
            "--periods", "3",
            "--replications", "2",
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data[0]["trace"]) == 3
    summary = json.loads((tmp_path / "override.summary.json").read_text())
    assert summary["cells"][0]["seed_lo"] == 7
    assert summary["cells"][0]["seed_hi"] == 8


def test_cached_parser_keeps_calls_independent(tmp_path):
    """One parser serves every call, yet a flag of one call never reaches the next."""
    assert build_parser() is build_parser()
    flagged = write_config(tmp_path, name="flagged.cfg", out="flagged.csv")
    flags = ["--seed", "7", "--periods", "3", "--replications", "1"]
    assert main(["--config", str(flagged), *flags]) == 0
    plain = write_config(tmp_path, name="plain.cfg", out="plain.csv")
    assert main(["--config", str(plain)]) == 0
    # 2 cells; seeds and periods from each run's own flags or config
    for name, periods, seeds in (("flagged", 3, (7, 7)), ("plain", 4, (42, 43))):
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * periods
        cells = json.loads((tmp_path / f"{name}.summary.json").read_text())["cells"]
        assert [(c["seed_lo"], c["seed_hi"]) for c in cells] == [seeds] * 2


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "traces.csv"
    assert main(["--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert main(["--config", str(cfg)]) == 0
    assert out.read_bytes() == first


def test_unwritable_output_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, out="missing/dir/traces.csv")
    assert main(["--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_log_level_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IRSBANDIT_LOG", "verbose")
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: IRSBANDIT_LOG: expected one of debug, info, warning, quiet, got 'verbose'\n"
    )
    assert not (tmp_path / "traces.csv").exists()


def test_log_level_applies_when_logging_is_configured(tmp_path, monkeypatch, caplog):
    """pytest's capture handler sits on the root logger, so logging.basicConfig
    does nothing here; IRSBANDIT_LOG=info still logs one line per sweep cell."""
    monkeypatch.setenv("IRSBANDIT_LOG", "info")
    cfg = write_config(tmp_path, text="")
    flags = ["--periods", "2", "--replications", "1", "--out", str(tmp_path / "t.csv")]
    assert main(["--config", str(cfg), *flags]) == 0
    cells = [r for r in caplog.records if r.getMessage().startswith("cell ")]
    assert len(cells) == 12 and all(r.levelno == logging.INFO for r in cells)


def test_log_level_is_case_insensitive(tmp_path, monkeypatch):
    monkeypatch.setenv("IRSBANDIT_LOG", "QUIET")
    assert main(["--config", str(write_config(tmp_path))]) == 0
