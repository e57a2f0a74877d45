"""Tests for the chunk engine's workspaces (``parallel.map_chunks``)."""

import threading
import time

import pytest

from gibbsflow.parallel import chunk_ranges, map_chunks


class TestWorkspace:
    @pytest.mark.parametrize("threads, n, made", [
        (1, 1000, 1), (3, 1000, 3), (8, 1000, 4), (8, 100, 1), (8, 0, 0)])
    def test_factory_runs_on_calling_thread_once_per_worker(self, threads, n, made):
        # 1000 rows are four 256-row chunks: min(threads, chunks) workspaces.
        caller, makers = threading.get_ident(), []

        def factory():
            makers.append(threading.get_ident())
            return []

        map_chunks(lambda i, start, stop, ws: i, n, threads, workspace=factory)
        assert makers == [caller] * made

    @pytest.mark.parametrize("threads", [1, 8])
    def test_no_two_running_chunks_share_one_and_order_holds(self, threads):
        def body(i, start, stop, ws):
            ws.append(i)
            time.sleep(0.002)  # let the other workers run meanwhile
            assert ws == [i], "a workspace was held by two chunks at once"
            ws.pop()
            return i, start, stop

        assert map_chunks(body, 5000, threads, 100, list) == chunk_ranges(5000, 100)
