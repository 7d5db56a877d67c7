"""Checkpoint binary format: bit-exact roundtrips and corruption handling."""

import struct

import numpy as np
import pytest

from gmix.cli import main

from gmix.checkpoint import (
    MAGIC,
    load_checkpoint,
    load_model,
    model_arrays,
    save_checkpoint,
)
from gmix.heads import Backbone, init_head


class TestRoundtrip:
    def test_bit_exact(self, tmp_path, rng):
        arrays = {
            "a": rng.normal(size=(3, 4)),
            "b.weird-name": rng.normal(size=(7,)),
            "scalarish": rng.normal(size=(1,)),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == np.float64

    def test_model_roundtrip_preserves_outputs(self, tmp_path, rng):
        backbone = Backbone(6, latent_dim=3, seed=1)
        head = init_head("aagmm", 4, 3, seed=2)
        path = tmp_path / "model.bin"
        save_checkpoint(path, model_arrays(backbone, head))

        fresh_backbone = Backbone(6, latent_dim=3, seed=99)
        fresh_head = init_head("aagmm", 4, 3, seed=98)
        load_model(path, fresh_backbone, fresh_head)
        x = rng.normal(size=(5, 6))
        from gmix.autodiff import Tensor

        a = fresh_head.class_log_scores(fresh_backbone.embed(Tensor(x))).data
        b = head.class_log_scores(backbone.embed(Tensor(x))).data
        np.testing.assert_array_equal(a, b)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v99.bin"
        path.write_bytes(MAGIC + (99).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "trunc.bin"
        save_checkpoint(path, {"w": rng.normal(size=(4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_anywhere(self, tmp_path, rng):
        path = tmp_path / "cut.bin"
        save_checkpoint(path, {"w": rng.normal(size=(2, 3)), "scalar": np.array(1.5)})
        data = path.read_bytes()
        for offset in range(len(data)):
            path.write_bytes(data[:offset])
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(path)

    def test_name_mismatch(self, tmp_path, rng):
        path = tmp_path / "names.bin"
        save_checkpoint(path, {"stray": rng.normal(size=(2,))})
        backbone = Backbone(4, latent_dim=2, seed=0)
        head = init_head("kmeans", 3, 2, seed=0)
        with pytest.raises(ValueError, match="do not match"):
            load_model(path, backbone, head)

    def test_shape_mismatch(self, tmp_path):
        backbone = Backbone(4, latent_dim=2, seed=0)
        head = init_head("kmeans", 3, 2, seed=0)
        path = tmp_path / "shape.bin"
        arrays = model_arrays(backbone, head)
        arrays["head.centers"] = np.zeros((5, 5))
        save_checkpoint(path, arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_model(path, backbone, head)


class TestCorruptLengths:
    """Declared lengths are checked against the file before anything is read.

    The layout of ``{"w": (2, 3)}``: name length at byte 16, the name at
    20, ndim at 21, the two extents at 25 and 33, the payload at 41.
    """

    MUTATIONS = {
        "extent 2**40": (25, struct.pack("<Q", 2**40)),
        "extent 2**62": (25, struct.pack("<Q", 2**62)),
        "ndim 2**30": (21, struct.pack("<I", 2**30)),
    }

    @pytest.fixture(params=sorted(MUTATIONS))
    def corrupt(self, request, tmp_path, guarded_checkpoint_reads):
        path = tmp_path / "corrupt.bin"
        save_checkpoint(path, {"w": np.zeros((2, 3))})
        data = bytearray(path.read_bytes())
        assert len(data) == 41 + 48
        offset, value = self.MUTATIONS[request.param]
        data[offset:offset + len(value)] = value
        path.write_bytes(bytes(data))
        return path

    def test_load_checkpoint_reports_truncation(self, corrupt):
        with pytest.raises(ValueError, match="truncated checkpoint: (shape|payload) of tensor 'w'"):
            load_checkpoint(corrupt)

    def test_eval_exits_1_with_an_error_line(self, corrupt, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("data.unlabeled = 300\ndata.test = 100\n")
        assert main(["eval", str(config_path), "--checkpoint", str(corrupt)]) == 1
        assert capsys.readouterr().err.startswith("error: truncated checkpoint")
