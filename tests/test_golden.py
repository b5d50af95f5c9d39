"""Golden outputs: the SHA-256 of every file a fixed set of CLI flows writes.

The flows are the 8 ``REPLAYS`` flows of ``test_cli`` (each train, bank,
paced train and replay), then, for each task, one sample bank and one
``eval`` of a trained checkpoint, and one ``calibrate``. Every path is
relative to the working directory, so no file holds a temporary path.

A change that alters output bytes on purpose updates these constants and
lists each one as old -> new in CHANGES.md; a failure prints the GOLDEN
line of each file that differs, ready to paste. The constants hold for one
numpy and one BLAS build: a dense GEMM's last bits can depend on the BLAS
kernel, so on another build a mismatch may be a replay difference and not a
code change. The failure message names both.
"""

import hashlib
from pathlib import Path

import numpy as np

from pcbls.cli import main
from test_cli import REPLAYS, _write_small_config

# relative path -> SHA-256 of its bytes
GOLDEN = {
    "anti/cfg.json": "a3161c7b55b030d7afed04b36df7d16e82b3ad567ecaafaec19add5ac30c4694",
    "anti/first/checkpoint.pckpt": "41ddb3f7461ec9382cd23a69e0bb8c3e8b278845f1b574e95a607294d1ba6071",
    "anti/first/metrics.csv": "c14ef6395e0f3f7a185a357f888267d61d5c0f12de295b9845f3f9661681ff86",
    "anti/first/resolved_config.json": "a20e2d1ea5187f06cd3480414d143677c6919dc2f2c7d38bfd519021bda72305",
    "anti/replay/checkpoint.pckpt": "41ddb3f7461ec9382cd23a69e0bb8c3e8b278845f1b574e95a607294d1ba6071",
    "anti/replay/metrics.csv": "c14ef6395e0f3f7a185a357f888267d61d5c0f12de295b9845f3f9661681ff86",
    "anti/replay/resolved_config.json": "a20e2d1ea5187f06cd3480414d143677c6919dc2f2c7d38bfd519021bda72305",
    "linear/cfg.json": "a3161c7b55b030d7afed04b36df7d16e82b3ad567ecaafaec19add5ac30c4694",
    "linear/first/checkpoint.pckpt": "c1aeb51574680990b17fac84bba27e0d9efa4f87f028b2ea75aef1407c58e828",
    "linear/first/metrics.csv": "f706cbc3420b4150c75ea38e03b4b9d0fab81d112a4189e22b2798009a96a8c8",
    "linear/first/resolved_config.json": "6dac15a7a0f4d5d812ccff6a2607245103b44aeec81f50e9d815dde82c984a61",
    "linear/replay/checkpoint.pckpt": "c1aeb51574680990b17fac84bba27e0d9efa4f87f028b2ea75aef1407c58e828",
    "linear/replay/metrics.csv": "f706cbc3420b4150c75ea38e03b4b9d0fab81d112a4189e22b2798009a96a8c8",
    "linear/replay/resolved_config.json": "6dac15a7a0f4d5d812ccff6a2607245103b44aeec81f50e9d815dde82c984a61",
    "ls/cfg.json": "a3161c7b55b030d7afed04b36df7d16e82b3ad567ecaafaec19add5ac30c4694",
    "ls/first/checkpoint.pckpt": "a0c9e9918c44a09c03f62cfe419b8f7dba1629c5e90eba820d0c29087318ab70",
    "ls/first/metrics.csv": "63ae08f50650296d2fc489912e39de4e6f0f62e1067076a7bcc4963c16b441d4",
    "ls/first/resolved_config.json": "ea2b63a5dbe91b9e1ababf5b5736096e7f501dfd3575d3c43831d6c48bacd0ee",
    "ls/replay/checkpoint.pckpt": "a0c9e9918c44a09c03f62cfe419b8f7dba1629c5e90eba820d0c29087318ab70",
    "ls/replay/metrics.csv": "63ae08f50650296d2fc489912e39de4e6f0f62e1067076a7bcc4963c16b441d4",
    "ls/replay/resolved_config.json": "ea2b63a5dbe91b9e1ababf5b5736096e7f501dfd3575d3c43831d6c48bacd0ee",
    "random/cfg.json": "a3161c7b55b030d7afed04b36df7d16e82b3ad567ecaafaec19add5ac30c4694",
    "random/first/checkpoint.pckpt": "c4c21505d2e5a59c6aebb27defcdb0b9026648bb1584e00be4e7f9dd8c90d478",
    "random/first/metrics.csv": "d024f89e1898a5ec6f67d908d18586df0990171bf2797dcc103a5aa8e86cbddb",
    "random/first/resolved_config.json": "b26ebddc253762676d5f73193c926ae8d08eb9d6f66d6ecd8d10fd2515e4591e",
    "random/replay/checkpoint.pckpt": "c4c21505d2e5a59c6aebb27defcdb0b9026648bb1584e00be4e7f9dd8c90d478",
    "random/replay/metrics.csv": "d024f89e1898a5ec6f67d908d18586df0990171bf2797dcc103a5aa8e86cbddb",
    "random/replay/resolved_config.json": "b26ebddc253762676d5f73193c926ae8d08eb9d6f66d6ecd8d10fd2515e4591e",
    "segmentation+pixel_bank/bank/000000.pcbl": "43512775e6d2ae9173400f6dd0f79dffbfdcec2655419c73feee7bce56632f33",
    "segmentation+pixel_bank/bank/000001.pcbl": "4541ca586bab8da8d974687fc26a8794aa4006a1d5756139d173d4d57237e726",
    "segmentation+pixel_bank/bank/000002.pcbl": "e8a95cf94f6751bbf53884d6c53dc55b688dfe471a1f48b341efaa5dc45ea19f",
    "segmentation+pixel_bank/bank/000003.pcbl": "a98c6e251b62520aa572639c20a92bd2b7f3e5faffed37a1b88ede1f6a0dc2f3",
    "segmentation+pixel_bank/bank/000004.pcbl": "5dce4fcea6baee133ac6757a4d80deed7f3ef19db9d0841946e9c63ea465dc1a",
    "segmentation+pixel_bank/bank/000005.pcbl": "b5ecd9dc47f3308696ae3dc198d07316f65ff78c672d4fc8c5a97da0dcdbda43",
    "segmentation+pixel_bank/bank/000006.pcbl": "eec6fa184d8bc85905d7d54aa88085de317fa5fc2bb52f3a5fe98e06db7b2b40",
    "segmentation+pixel_bank/bank/000007.pcbl": "616d6fd7d50d76cca8d01319023d4dfc3d7e07c031f2a1e3fcd0056fc7ab6308",
    "segmentation+pixel_bank/base/checkpoint.pckpt": "85d3c164d9fb5d598317ed227267cdecb1cf4f2b0df9a2da5d760967a9921a76",
    "segmentation+pixel_bank/base/metrics.csv": "a93357ece0479710c243255feb164ff6f1a515b515e77d40204f17bd52f59259",
    "segmentation+pixel_bank/base/resolved_config.json": "e8a0c0250c85117e20823933c247fc3aa9308efdd90acc2dfe01194ae581b36c",
    "segmentation+pixel_bank/cfg.json": "74495b79b26a2f2aca05759210d1af44322557ca0e02145dcf1914dab71adf9b",
    "segmentation+pixel_bank/eval.csv": "e4e7f61a447e25057027983ae5e5b89f4e2fc5f2b0ebb308176a8109e7af2a5f",
    "segmentation+pixel_bank/first/checkpoint.pckpt": "a3bc93d44c6565958dabc3152e0e3cb54ca0ba0e9379b123f6ca94c7abf55446",
    "segmentation+pixel_bank/first/metrics.csv": "6068a89330184cb24e5ddbb838f8fd371d4ec6c0dedfb0b9300602ac15ccc7a4",
    "segmentation+pixel_bank/first/resolved_config.json": "97a3395ac8755bc1e49d0362e30bb3061afdc4d5cc2626df7136e9485915e99c",
    "segmentation+pixel_bank/replay/checkpoint.pckpt": "a3bc93d44c6565958dabc3152e0e3cb54ca0ba0e9379b123f6ca94c7abf55446",
    "segmentation+pixel_bank/replay/metrics.csv": "6068a89330184cb24e5ddbb838f8fd371d4ec6c0dedfb0b9300602ac15ccc7a4",
    "segmentation+pixel_bank/replay/resolved_config.json": "97a3395ac8755bc1e49d0362e30bb3061afdc4d5cc2626df7136e9485915e99c",
    "segmentation+pixel_bank/sample_bank.csv": "31573ec04172b623f66e3c8117b6f69c5c31419b9dfaed69ea50215e67c85700",
    "tool_cls/cfg.json": "b2fdb64c82e07451cfc4429d7916a0a6325f0ae053a57247384cc11de89cd105",
    "tool_cls/eval.csv": "eb930b95ec22e087928941c766fa1a956b3f784b8d6326a391a10f8bdccc8f12",
    "tool_cls/first/checkpoint.pckpt": "ca017e1a3057475d4b782c26d4842f30d328dcf8085ea74c08333fbc0a73a0e3",
    "tool_cls/first/metrics.csv": "be03635e4f71731c0487c103b2786619582eb1d066ff50895140c0a6e6238248",
    "tool_cls/first/resolved_config.json": "a621e50c00b94b09a6877ffcd4087c1127c09df80e09d670fc0c9490708e0aad",
    "tool_cls/replay/checkpoint.pckpt": "ca017e1a3057475d4b782c26d4842f30d328dcf8085ea74c08333fbc0a73a0e3",
    "tool_cls/replay/metrics.csv": "be03635e4f71731c0487c103b2786619582eb1d066ff50895140c0a6e6238248",
    "tool_cls/replay/resolved_config.json": "a621e50c00b94b09a6877ffcd4087c1127c09df80e09d670fc0c9490708e0aad",
    "tool_cls/sample_bank.csv": "4e957c2485c1b4ad0726237d091e636514283b7dde64fa7ff5c19b89b9e8f374",
    "workflow_cls/calib/calibration.csv": "b6d677fa22df72270d322dc8c7d8ece7d359c8d18b803d510d21e0aaf031204b",
    "workflow_cls/calib/temperature.json": "4d3f9b91bca5f13fc355676632f3dbea5ebc2d988f12788a4e35d15f66141fea",
    "workflow_cls/cfg.json": "a3161c7b55b030d7afed04b36df7d16e82b3ad567ecaafaec19add5ac30c4694",
    "workflow_cls/eval.csv": "f6aed8d0efe59c72486f592011a581277b0b97b30a3720e60f0b4dc1d0894283",
    "workflow_cls/first/checkpoint.pckpt": "161cfa76a31528c7825f0c9f758de8962189dd1fb91dc3dcd5ba22ff863bc9c4",
    "workflow_cls/first/metrics.csv": "b42ce965bfbce62e3694a5649358c38e4ba1bafb993ba350751c92240676d53c",
    "workflow_cls/first/resolved_config.json": "ea27dfe90c88d68f32129cf6ac5cbb3d5ed15da4dea00649a58c3a97cc91261b",
    "workflow_cls/replay/checkpoint.pckpt": "161cfa76a31528c7825f0c9f758de8962189dd1fb91dc3dcd5ba22ff863bc9c4",
    "workflow_cls/replay/metrics.csv": "b42ce965bfbce62e3694a5649358c38e4ba1bafb993ba350751c92240676d53c",
    "workflow_cls/replay/resolved_config.json": "ea27dfe90c88d68f32129cf6ac5cbb3d5ed15da4dea00649a58c3a97cc91261b",
    "workflow_cls/sample_bank.csv": "79754d5447e88f6632e9fc5494abe89e3eaee21e989110bda9c0eded68471509",
    "workflow_cls+sample_bank/bank": "326275a870543c6f221e67081bd4916727c657781296c99cd6ae25ee5d729d8b",
    "workflow_cls+sample_bank/base/checkpoint.pckpt": "397d9904b0ceb563df300db7f206b661e7fadf6a90afc5581c750bf9c14ebb81",
    "workflow_cls+sample_bank/base/metrics.csv": "e3bba8586db9923ffc7864704c6e3041ac3bb51904872471da34b81ac8f0e3a6",
    "workflow_cls+sample_bank/base/resolved_config.json": "318115a139892a3bfc3fc6f756c0d598c4fb4f5923a3d61c8ccd11b07b1f5314",
    "workflow_cls+sample_bank/cfg.json": "a3161c7b55b030d7afed04b36df7d16e82b3ad567ecaafaec19add5ac30c4694",
    "workflow_cls+sample_bank/first/checkpoint.pckpt": "4b3a18e83358f965b4ecbf605acbd1c9fee4e68ad5b1577347ca2515a07568c4",
    "workflow_cls+sample_bank/first/metrics.csv": "027edf224c79224362b077ed94ec773e512494246b30672e231910901630e680",
    "workflow_cls+sample_bank/first/resolved_config.json": "07ae58bbfd1e75aa0c4520e9fc835c91b503037f70d95ff0045b0726043dd5b6",
    "workflow_cls+sample_bank/replay/checkpoint.pckpt": "4b3a18e83358f965b4ecbf605acbd1c9fee4e68ad5b1577347ca2515a07568c4",
    "workflow_cls+sample_bank/replay/metrics.csv": "027edf224c79224362b077ed94ec773e512494246b30672e231910901630e680",
    "workflow_cls+sample_bank/replay/resolved_config.json": "07ae58bbfd1e75aa0c4520e9fc835c91b503037f70d95ff0045b0726043dd5b6",
}


def _run(args) -> None:
    assert main([str(a) for a in args]) == 0, args


def _flows() -> None:
    """Run every flow in the working directory."""
    for preset, extra, bank in REPLAYS:
        case = Path(preset + (f"+{bank}_bank" if bank else ""))
        case.mkdir()
        cfg = _write_small_config(case, **extra)
        common = ["--config", cfg, "--seed", 9]
        flags = ["--preset", preset]
        if bank:
            _run(["train", *common, "--out", case / "base"])
            _run(["bank", *common, "--checkpoint", case / "base" / "checkpoint.pckpt",
                  "--granularity", bank, "--out", case / "bank"])
            flags += ["--pace", "--bank", case / "bank"]
        _run(["train", *common, *flags, "--out", case / "first"])
        _run(["train", "--config", case / "first" / "resolved_config.json", "--out", case / "replay"])
    # one sample bank and one eval per task, and one calibrate
    for case in ("workflow_cls", "tool_cls", "segmentation+pixel_bank"):
        common = ["--config", Path(case) / "cfg.json", "--seed", 9,
                  "--checkpoint", Path(case) / "first" / "checkpoint.pckpt"]
        _run(["bank", *common, "--granularity", "sample", "--out", Path(case) / "sample_bank.csv"])
        _run(["eval", *common, "--out", Path(case) / "eval.csv"])
    _run(["calibrate", "--config", Path("workflow_cls") / "cfg.json", "--seed", 9,
          "--checkpoint", Path("workflow_cls") / "first" / "checkpoint.pckpt", "--out", Path("workflow_cls") / "calib"])


def _build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def test_flow_outputs_match_their_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _flows()
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    differ = sorted(k for k in got.keys() | GOLDEN.keys() if got.get(k) != GOLDEN.get(k))
    # a GOLDEN line for each file written, to paste when the change is intended
    lines = "".join(f'\n    "{k}": "{got[k]}",' if k in got else f"\n    (not written) {k}" for k in differ)
    assert not differ, (
        f"{len(differ)} of {len(GOLDEN)} golden files differ under {_build()} "
        f"(the constants were taken under numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0): {differ}{lines}"
    )
