import filecmp
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ASSETS = ("polar_reliability_1024.txt", "ldpc_bg1.txt", "ldpc_bg2.txt")


def test_generator_reproduces_bundled_assets(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_assets", ROOT / "tools" / "generate_assets.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "DATA_DIR", tmp_path)
    generator.main()
    for name in ASSETS:
        assert filecmp.cmp(tmp_path / name, ROOT / "src" / "linksim" / "data" / name,
                           shallow=False), name
