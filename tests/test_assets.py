import filecmp
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ASSETS = ("ldpc_bg1.txt", "ldpc_bg2.txt")


@pytest.fixture
def generator(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_assets", ROOT / "tools" / "generate_assets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "DATA_DIR", tmp_path)
    return module


def test_generator_reproduces_bundled_assets(generator, tmp_path):
    generator.main()
    for name in ASSETS:
        assert filecmp.cmp(tmp_path / name, ROOT / "src" / "linksim" / "data" / name,
                           shallow=False), name


def test_generator_help_writes_nothing(generator, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        generator.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert not any(tmp_path.iterdir())
