"""Golden digests: the SHA-256 of the dataset files that the CLI writes (with
one user's records too) and of the dense ground-truth levels, for master seeds
0-2 at gaze noise 0 and 0.1, and of every user's evaluated scene.

These outputs are integers or come from integer-exact, host-stable draws, so
their bytes may only change on purpose. The report and sweep files are not
pinned here: their floats go through LAPACK and depend on the host's BLAS.

The ``allocate`` command's ``allocation.csv`` and its summary but for the
objective are pinned too: the capacities and the multiplier come from sorting,
sums and quotients of ratios rounded to 9 digits. The objective goes through
numpy's ``log``, whose last bit may depend on the host's SIMD kernel; it is
checked against ``math.log`` to a relative 1e-12."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from attnalloc import ExperimentConfig, ExperimentRunner, ground_truth_levels, load_world
from attnalloc.cli import EXIT_OK, cli_main

# (gaze_noise, seed): (world.json, records.csv, levels as little-endian int64)
GOLDEN = {
    (0.0, 0): ("405ed39cd9f1a4330c3d54f559583bd155a1115a4799e0be211e4b6734e36256",
               "e966d02d89619159d55cdac6bd2508df43380b19b4e485f01d059267222ae9cb",
               "3d169c9742e8b841189af7b658f6683f8e50f546f8958474a5a6d7870cff0621"),
    (0.0, 1): ("a558dc872b5daee87739dcb8484abae6207182d7b62bb224ef5786caf912f73d",
               "1945ed52f2320722988658f8be17e0373b005de179a99b112a273ddffbbded76",
               "15e40113270b5d1a07b3c8ce15693d25773a3061b961608b37cbcf78ea2a643f"),
    (0.0, 2): ("e1dd9dd63399f939d715a014086d7ca9384f4264ac96571342dffb976c2939b1",
               "004155e0f45782cb5027acfa88580dce22386f0fdbefc1f7c076e82fa650a3fd",
               "53c2ad64086f2e754f9409324398b81cce0eea2a54cbf7530a19a759fce713f8"),
    (0.1, 0): ("b3c45f9495c18dcc7fd3600854ff17441f80ef2bc21dd6dfe90af59138444a5e",
               "46f5c4ff2861a4e59b17a23cadbffb256d0b6272ad59e8ac70f0b6e45edbaa8c",
               "2866444fc13111d72411e28df2471ea059e0068e7a676a4b0a9754a84c6fe7e7"),
    (0.1, 1): ("b2aa2c7c2e54f3953d7ed97a593fe6ebd21b3bb89c526ddeb86deee7f0678472",
               "eaebd502bc6291f97e9e492a1049f6915173af4b43406876362fd0db2e078412",
               "9a7eec3b284f7f1285c8aa709fbe01f3e72c4813c426bf48a7e1a306f2fc0c1c"),
    (0.1, 2): ("1ec781a515e528e355ff784b6ef9f14c124477d31cdd751e8ffb36eb76bdcc8b",
               "f1c010c6acf6df1876bc91c176ef3ea6b595485fda95b9cbcfd14f66aca2307a",
               "88e9d0f089997f644c2a2ff4f6f10af6198378c95b4c463c4a9e65ae0308dbf2"),
}

# (gaze_noise, seed): records.csv of sparsify --user 3
GOLDEN_ONE_USER = {
    (0.0, 0): "cab9df26e36c6cc1f4d3609a48f15cadf16fb13751c5d51174eceea6da3f764a",
    (0.0, 1): "416653cc46e4ddba862c108c1a750b5c36dd6d2b77335bd18bc14717ae150985",
    (0.0, 2): "ca5191fe5ad43651d375602279e528c8fd36cb16889cfb00e77d6c4d8afb72ef",
    (0.1, 0): "bd6cda335899ba20fad8ac9a90c03f241675030a37bd6411c2e8db4619e597b9",
    (0.1, 1): "20519abc1aa54ffc666dc3736e33f502269ba4e0680431f7d7f46c4704f463c6",
    (0.1, 2): "3ef192efaee0766a058e7b46e557cf6eda9059bf748ee9e629e36cb0258e4cfd",
}

# master seed of the default config: every user's scene, in user order, each
# as little-endian int64 led by its length
GOLDEN_SCENES = {
    0: "da6e4a57ed2421943c9fe0721391ffc05c6210fc1dfbe17813b027de7497cb5d",
    1: "359103a73c68acec74b79bbf3d1a6b91579278704f50966f031a95645daaec04",
    2: "12b6d10de828c6a28a07339e54612e99e709751d66918416f4d781d5eed77efd",
}

# allocate's (--weights, --budget, --floor): (stdout summary without its
# "objective" line, allocation.csv); README's example, three objects clamped
# to the floor, and a zero weight
GOLDEN_ALLOCATE = {
    ("4,1", "40", "15"): ("a4f3e3579812d5524250087920ab206e81f88c7d600e4fddb8fd63714c41ae9b",
                          "1184468c79c08d6395a9892cb8c9fed6a0fb009d01fd843680b5b155353f7843"),
    ("5,3,0.2,0.1,1", "100", "15"): (
        "86633ffdc7ad8cdded7630eacfb5f3ab1d83af23d14fdaba21082c2010ab7ddc",
        "f3cf190749472709b264794ee39ce82949fad7637edaec8176900cb60950bfdf"),
    ("3,0,2", "60", "15"): ("33469d5749374bedb28a0a7f6b09795b2e044a4e3fad32d1e696e90f2383a806",
                            "05fbedcffe140c607aaff3f6732d295e11be0eaa15d00472babf6fa871a46cbf"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("gaze_noise, seed", sorted(GOLDEN))
def test_dataset_digests(tmp_path, gaze_noise, seed):
    config = tmp_path / "noise.cfg"
    config.write_text(f"[world]\ngaze_noise = {gaze_noise}\n")
    world, records = tmp_path / "world.json", tmp_path / "records.csv"
    common = ["--config", str(config), "--seed", str(seed)]
    assert cli_main(["generate", *common, "--out", str(world)]) == EXIT_OK
    assert cli_main(["sparsify", *common, "--world", str(world), "--out", str(records)]) == EXIT_OK
    levels = ground_truth_levels(load_world(world)).levels.astype("<i8").tobytes()
    assert (_sha256(world.read_bytes()), _sha256(records.read_bytes()),
            _sha256(levels)) == GOLDEN[gaze_noise, seed]
    one_user = tmp_path / "user3.csv"
    assert cli_main(["sparsify", *common, "--world", str(world), "--user", "3",
                     "--out", str(one_user)]) == EXIT_OK
    assert _sha256(one_user.read_bytes()) == GOLDEN_ONE_USER[gaze_noise, seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_SCENES))
def test_scene_digests(seed):
    runner = ExperimentRunner(ExperimentConfig(master_seed=seed))
    scenes = [runner.scene_objects(u) for u in range(runner.world.num_users)]
    data = b"".join(np.array([len(s), *s], dtype="<i8").tobytes() for s in scenes)
    assert _sha256(data) == GOLDEN_SCENES[seed]


@pytest.mark.parametrize("weights, budget, floor", sorted(GOLDEN_ALLOCATE))
def test_allocate_digests(tmp_path, capsys, weights, budget, floor):
    out = tmp_path / "allocation.csv"
    argv = ["allocate", "--weights", weights, "--budget", budget, "--floor", floor]
    assert cli_main([*argv, "--out", str(out)]) == EXIT_OK
    summary = capsys.readouterr().out.removesuffix(f"wrote {out}\n")
    lines = summary.splitlines(keepends=True)
    pinned = "".join(line for line in lines if not line.startswith(' "objective": '))
    assert (_sha256(pinned.encode()), _sha256(out.read_bytes())) == GOLDEN_ALLOCATE[
        weights, budget, floor]
    with open(out, encoding="utf-8", newline="") as fh:
        rows = [(float(row["weight"]), float(row["capacity_k"])) for row in csv.DictReader(fh)]
    expected = math.fsum(w * math.log(c) for w, c in rows if w > 0)
    assert json.loads(summary)["objective"] == pytest.approx(expected, rel=1e-12)
