"""The BLAS limit a data-parallel rank applies when it starts."""

from __future__ import annotations

import pytest

from repro.distributed import blas


class _FakeOpenBLAS:
    def __init__(self, threads: int):
        self.threads = threads
        self.calls: list = []

    def handle(self) -> blas.OpenBLAS:
        return blas.OpenBLAS("/lib/libopenblas.so", self.get, self.set,
                             self.shutdown)

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.calls.append(("set", threads))
        self.threads = threads

    def shutdown(self) -> None:
        self.calls.append(("shutdown",))


@pytest.fixture
def fake(monkeypatch):
    def install(threads: int, cpus: int) -> _FakeOpenBLAS:
        library = _FakeOpenBLAS(threads)
        monkeypatch.setattr(blas, "find_openblas", library.handle)
        monkeypatch.setattr(blas, "usable_cpus", lambda: cpus)
        return library
    return install


class TestLimitBlasThreads:
    def test_lowers_to_the_share_and_keeps_a_pool_above_one(self, fake):
        library = fake(threads=8, cpus=8)
        pool = blas.limit_blas_threads(2)
        assert library.calls == [("set", 4)]
        assert (pool["threads_before"], pool["threads_after"]) == (8, 4)
        assert pool["library"] == "/lib/libopenblas.so"

    def test_a_share_of_one_stops_the_pool(self, fake):
        library = fake(threads=2, cpus=2)
        pool = blas.limit_blas_threads(2)
        assert library.calls == [("set", 1), ("shutdown",)]
        assert (pool["threads_before"], pool["threads_after"]) == (2, 1)

    def test_never_raises_the_count(self, fake):
        library = fake(threads=1, cpus=8)
        pool = blas.limit_blas_threads(2)
        assert library.calls == []
        assert (pool["threads_before"], pool["threads_after"]) == (1, 1)

    def test_more_ranks_than_cpus_still_get_one_thread(self, fake):
        library = fake(threads=2, cpus=2)
        assert blas.limit_blas_threads(3)["threads_after"] == 1
        assert library.calls == [("set", 1), ("shutdown",)]

    def test_world_of_one_changes_nothing(self, fake):
        # Even an oversubscribed pool: world 1 is the caller's process.
        library = fake(threads=4, cpus=2)
        pool = blas.limit_blas_threads(1)
        assert library.calls == []
        assert (pool["threads_before"], pool["threads_after"]) == (4, 4)

    def test_no_setter_found_changes_nothing_and_reports_none(self,
                                                              monkeypatch):
        monkeypatch.setattr(blas, "find_openblas", lambda: None)
        pool = blas.limit_blas_threads(2)
        assert pool["threads_before"] is None
        assert pool["threads_after"] is None
        assert pool["library"] is None


class TestFindOpenBLAS:
    def test_reads_the_loaded_libraries(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r--p 00000000 08:01 1 /usr/lib/libc.so.6\n"
            "7f01-7f02 r-xp 00000000 08:01 2 /x/libscipy_openblas64_-ab.so\n"
            "7f02-7f03 r--p 00001000 08:01 2 /x/libscipy_openblas64_-ab.so\n"
            "7f03-7f04 rw-p 00000000 00:00 0\n")
        assert blas._loaded_libraries(str(maps)) == [
            "/x/libscipy_openblas64_-ab.so"]
        assert blas._loaded_libraries(str(tmp_path / "missing")) == []

    def test_getter_reads_this_process_without_changing_it(self):
        library = blas.find_openblas()
        if library is None:
            pytest.skip("numpy is not linked against a loaded OpenBLAS")
        assert library.get_threads() >= 1
        assert "openblas" in library.path
