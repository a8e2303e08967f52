import pytest

from glasscut.fileio import load_instance
from generator import DEFECT_PLATES, DEFECTS_PER_PLATE, Profile, write_instance
from workloads import WORKLOADS, instance_seed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    profile = WORKLOADS[workload].profile
    seed = instance_seed(WORKLOADS[workload], 7, 3)
    first = write_instance(str(tmp_path / "a" / "inst"), seed, profile)
    second = write_instance(str(tmp_path / "b" / "inst"), seed, profile)
    for suffix in ("_batch.csv", "_defects.csv"):
        with open(first + suffix, "rb") as a, open(second + suffix, "rb") as b:
            assert a.read() == b.read()


def test_seeds_and_workloads_give_different_instances(tmp_path):
    profile = Profile(20, 4)
    texts = set()
    for name, seed in (("a", "w/1/0"), ("b", "w/2/0"), ("c", "v/1/0")):
        prefix = write_instance(str(tmp_path / name), seed, profile)
        with open(prefix + "_batch.csv", encoding="utf-8") as f:
            texts.add(f.read())
    assert len(texts) == 3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_instances_pass_the_instance_checks(tmp_path, workload):
    """load_instance builds an Instance, whose constructor rejects bad items,
    chains and defects; the profile's shape must also come through."""
    w = WORKLOADS[workload]
    for index in range(10):
        prefix = write_instance(str(tmp_path / f"i{index}"), instance_seed(w, 1, index),
                                w.profile)
        instance = load_instance(prefix)
        assert instance.n_items == w.profile.n_items
        assert len(instance.chains) == w.profile.n_chains
        lengths = [len(chain) for chain in instance.chains]
        assert max(lengths) - min(lengths) <= 1
        assert sorted(instance.defects) == list(range(DEFECT_PLATES))
        assert all(len(d) == DEFECTS_PER_PLATE for d in instance.defects.values())
