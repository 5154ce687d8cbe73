"""How many threads inference may use: affinity mask, cgroup CPU quota and
the per-process share of ``extract --workers``."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from dynamark import cli, parallel


@pytest.fixture
def eight_cpus(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(parallel, "quota_cpus", lambda: None)
    monkeypatch.setattr(parallel, "_share", None)


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
    parallel.share_cpus(3)
    assert parallel.worker_count() == 2
    monkeypatch.setattr(parallel, "_share", None)
    parallel.share_cpus(16)
    assert parallel.worker_count() == 1


def test_share_cpus_limits_a_worker_process():
    want = max(1, parallel.worker_count() // 2)
    with ProcessPoolExecutor(max_workers=1, initializer=parallel.share_cpus,
                             initargs=(2,)) as pool:
        assert pool.submit(parallel.worker_count).result() == want
    assert parallel._share is None


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments, runs the
    initializer once and maps inline."""
    seen = {}

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.seen.update(max_workers=max_workers, initializer=initializer, initargs=initargs)
        self.initializer, self.initargs = initializer, initargs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.initializer(*self.initargs)
        return [fn(*args) for args in zip(*iterables)]


def test_extract_workers_share_the_cpus(eight_cpus, monkeypatch, tmp_path):
    # extract --workers 4 starts four processes, each running its spans
    # on 8 // 4 = 2 threads, not on all eight
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    counts = []
    monkeypatch.setattr(cli, "_extract_one",
                        lambda w, o, kind: counts.append(parallel.worker_count())
                        or {"input": w, "status": "failed", "error": "not run"})
    audio = tmp_path / "audio"
    audio.mkdir()
    for name in ("a", "b"):
        (audio / f"{name}.wav").write_bytes(b"")
    cli.main(["extract", "--audio-dir", str(audio), "--out-dir", str(tmp_path / "out"),
              "--workers", "4"])
    assert _RecordingPool.seen == {"max_workers": 4, "initializer": parallel.share_cpus,
                                   "initargs": (4,)}
    assert counts == [2, 2]
