"""How many threads inference may use: affinity mask, cgroup CPU quota and
the share of each pool thread, such as one recording's of ``extract
--workers``, and the side lane that scores a training epoch."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dynamark import cli, parallel
from dynamark.audio import SAMPLE_RATE

from _synth import write_wav


@pytest.fixture
def eight_cpus(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(parallel, "quota_cpus", lambda: None)


def _cgroup_tree(tmp_path, membership, files):
    """A fake cgroup mount at ``tmp_path/cg`` holding ``files`` (relative
    path -> text), and a membership file with the given lines."""
    root = tmp_path / "cg"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text + "\n")
    own = tmp_path / "self_cgroup"
    own.write_text("\n".join(membership) + "\n")
    return root, own


@pytest.mark.parametrize("membership, files, want", [
    # cgroup v2: a quota of 1.5 CPUs rounds up to 2
    (["0::/"], {"cpu.max": "150000 100000"}, 2),
    (["0::/"], {"cpu.max": "max 100000"}, None),
    # v2 nested: the tightest quota on the way up to the mount applies
    (["0::/a/b"], {"a/b/cpu.max": "max 100000", "a/cpu.max": "300000 100000",
                   "cpu.max": "800000 100000"}, 3),
    # v1 with a joint cpu,cpuacct controller
    (["2:cpuacct:/", "1:cpu,cpuacct:/"],
     {"cpu,cpuacct/cpu.cfs_quota_us": "50000", "cpu,cpuacct/cpu.cfs_period_us": "100000"}, 1),
    (["1:cpu:/"], {"cpu/cpu.cfs_quota_us": "-1", "cpu/cpu.cfs_period_us": "100000"}, None),
    # a container mounts its own cgroup at the root: the host path is absent
    (["1:cpu:/docker/abc"],
     {"cpu/cpu.cfs_quota_us": "200000", "cpu/cpu.cfs_period_us": "100000"}, 2),
    # hybrid: an empty v2 root beside a v1 cpu quota
    (["1:cpu:/", "0::/"],
     {"cpu/cpu.cfs_quota_us": "400000", "cpu/cpu.cfs_period_us": "100000"}, 4),
    (["4:memory:/x", "0::/"], {}, None),
])
def test_quota_cpus_reads_the_tightest_quota(tmp_path, membership, files, want):
    root, own = _cgroup_tree(tmp_path, membership, files)
    assert parallel.quota_cpus(root, own) == want


def test_quota_cpus_without_cgroups(tmp_path):
    assert parallel.quota_cpus(tmp_path / "cg", tmp_path / "missing") is None


def test_worker_count_obeys_affinity_quota_and_share(eight_cpus, monkeypatch):
    assert parallel.worker_count() == 8
    monkeypatch.setattr(parallel, "quota_cpus", lambda: 3)
    assert parallel.worker_count() == 3
    monkeypatch.setattr(parallel, "quota_cpus", lambda: 64)
    assert parallel.worker_count() == 8
    # each pool thread gets the caller's count divided by the threads, at least one
    counts = parallel.map_in_order(lambda _: parallel.worker_count(), range(3), threads=3)
    assert counts == [2, 2, 2]
    counts = parallel.map_in_order(lambda _: parallel.worker_count(), range(16), threads=16)
    assert counts == [1] * 16
    assert parallel.worker_count() == 8  # the caller keeps its count


def test_extract_workers_share_the_cpus(eight_cpus, monkeypatch, tmp_path):
    # extract --workers 4 runs four recordings at once on four threads of
    # this process, each running its spans on 8 // 4 = 2 threads, not on
    # all eight; it starts no child process and leaves no thread running
    at_once = threading.Barrier(4, timeout=30)
    seen = []

    def features(path, kinds, run=cli.wav_features):
        seen.append((parallel.worker_count(), threading.current_thread() is threading.main_thread(),
                     multiprocessing.active_children()))
        at_once.wait()
        return run(path, kinds)

    monkeypatch.setattr(cli, "wav_features", features)
    audio = tmp_path / "audio"
    audio.mkdir()
    rng = np.random.default_rng(0)
    for name in "abcd":
        write_wav(audio / f"{name}.wav", rng.uniform(-0.5, 0.5, SAMPLE_RATE), SAMPLE_RATE)
    before = set(threading.enumerate())
    assert cli.main(["extract", "--audio-dir", str(audio), "--out-dir", str(tmp_path / "out"),
                     "--workers", "4"]) == 0
    assert seen == [(2, False, [])] * 4
    assert set(threading.enumerate()) <= before
    assert len(list((tmp_path / "out").glob("*.dynf"))) == 4


def test_a_side_lane_leaves_one_cpu_to_its_caller(eight_cpus):
    with parallel.side_lane() as lane:
        assert lane.submit(parallel.worker_count).result(timeout=10) == 7
        assert parallel.worker_count() == 8  # the caller keeps its count

    def lane_on_a_pool_thread(_):
        with parallel.side_lane() as lane:
            return lane

    # each of eight pool threads has one worker, so it gets no lane
    assert parallel.map_in_order(lane_on_a_pool_thread, range(8)) == [None] * 8


_STEP_AND_PREDICTION_DIGESTS = """
import hashlib
import numpy as np
from dynamark import autodiff as ad, trainer
from dynamark.network import DynamicsModel, ModelConfig
from dynamark.objectives import FrameTargets, TargetBatch, multitask_loss

rng = np.random.default_rng(86)
frames = 3000
features = rng.standard_normal((2, 22, frames)).astype(np.float32)
beat = np.zeros(frames, np.uint8)
beat[::50] = 1
downbeat, change_point = beat * (np.arange(frames) % 200 == 0), beat * (np.arange(frames) % 450 == 0)
targets = [FrameTargets(beat, downbeat.astype(np.uint8), change_point.astype(np.uint8),
                        rng.integers(0, 6, frames)) for _ in range(2)]
model = DynamicsModel(ModelConfig(), seed=86)
optimizer = trainer.AdamW(model.params, lr=3e-4)
logits = model.forward(features, training=True)
loss, _ = multitask_loss(logits, TargetBatch.from_targets(targets, [frames] * 2))
optimizer.zero_grad()
ad.backward(loss)
optimizer.step()
arrays = [loss.data] + [logit.data for logit in logits.values()]
arrays += [model.params[name].grad for name in model.params.names()]
arrays += [model.params[name].data for name in model.params.names()]
arrays += list(trainer.predict_frames(model, features[0, :, :1234], window_s=10).values())
for a in arrays:
    print(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
"""


def test_training_and_prediction_do_not_depend_on_the_blas_thread_count():
    # the package sets numpy's OpenBLAS to one thread on import, so a stock
    # training step and a prediction give the same bits whatever
    # OPENBLAS_NUM_THREADS says.  Without it, 130 of 132 arrays of a stock
    # step differ between one thread and two.
    src = str(Path(parallel.__file__).resolve().parents[1])

    def digests(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _STEP_AND_PREDICTION_DIGESTS], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        return run.stdout.split()

    one = digests(1)
    assert len(one) > 100 and digests(2) == one
