import numpy as np
import pytest

from cellens import (ContaminationSpec, Dataset, GroundTruth, ShapeMismatch,
                     SimConfig, block_covariance, contaminate,
                     dataset_from_csv, dataset_to_csv, generate_clean)


def test_dataset_csv_roundtrip(tmp_path):
    cfg = SimConfig(n=25, p=8, sparsity=4, block_size=2, seed=1)
    data = generate_clean(cfg)
    path = tmp_path / "d.csv"
    dataset_to_csv(data, str(path))
    back = dataset_from_csv(str(path))
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.X, data.X)


def test_mask_csv_export(tmp_path):
    cfg = SimConfig(n=30, p=10, sparsity=4, block_size=2, seed=2)
    data = generate_clean(cfg)
    obs = contaminate(data, ContaminationSpec(scenario="CellwiseMarginal",
                                              alpha=0.1),
                      block_covariance(cfg), seed=3)
    dpath, mpath = tmp_path / "d.csv", tmp_path / "m.csv"
    dataset_to_csv(obs, str(dpath), mask_path=str(mpath))
    lines = mpath.read_text().strip().splitlines()
    assert lines[0].startswith("y,x1,")
    total = sum(int(v) for line in lines[1:] for v in line.split(","))
    assert total == obs.truth.mask_X.sum() + obs.truth.mask_y.sum()


def test_dataset_shape_validation():
    with pytest.raises(ShapeMismatch):
        Dataset(y=np.zeros(3), X=np.zeros((4, 2)))


def test_csv_errors_are_line_precise(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1.0,2.0\n3.0\n")
    with pytest.raises(ShapeMismatch, match=r"bad.csv:3"):
        dataset_from_csv(str(bad))
    noheader = tmp_path / "nh.csv"
    noheader.write_text("a,b\n1,2\n")
    with pytest.raises(ShapeMismatch, match="must be 'y'"):
        dataset_from_csv(str(noheader))


def test_ground_truth_active_set_follows_beta():
    truth = GroundTruth(beta=[0.0, 1.5, 0.0, -2.0], mask_X=np.zeros((2, 4)),
                        mask_y=np.zeros(2))
    assert truth.active_set == {1, 3}
    truth.beta[0] = 0.5
    assert truth.active_set == {0, 1, 3}


def test_mask_csv_of_data_without_truth_is_zero(tmp_path):
    data = Dataset(y=np.arange(3.0), X=np.ones((3, 2)))
    dpath, mpath = tmp_path / "d.csv", tmp_path / "m.csv"
    dataset_to_csv(data, str(dpath), mask_path=str(mpath))
    assert mpath.read_text().splitlines() == ["y,x1,x2"] + ["0,0,0"] * 3
