"""Tests for the chunk engine's workspaces (``parallel.map_chunks``)."""

import threading
import time

import numpy as np
import pytest

from gibbsflow.parallel import chunk_ranges, map_chunks


class TestWorkspace:
    @pytest.mark.parametrize("threads, n, made", [
        (1, 1000, 1), (3, 1000, 3), (8, 1000, 4), (8, 100, 1), (8, 0, 0)])
    def test_factory_runs_on_calling_thread_once_per_worker(self, threads, n, made):
        # 1000 rows are four 256-row chunks: min(threads, chunks) workspaces,
        # each sized for the plan's largest chunk, min(n, 256) rows.
        caller, makers = threading.get_ident(), []

        def factory(rows):
            makers.append((threading.get_ident(), rows))
            return ()

        map_chunks(lambda i, start, stop, ws: i, n, threads, workspace=factory)
        assert makers == [(caller, min(n, 256))] * made

    @pytest.mark.parametrize("threads", [1, 8])
    def test_no_two_running_chunks_share_one_and_order_holds(self, threads):
        def body(i, start, stop, ws):
            (mark,) = ws
            mark[0] = i
            time.sleep(0.002)  # let the other workers run meanwhile
            assert mark[0] == i, "a workspace was held by two chunks at once"
            return i, start, stop

        assert map_chunks(body, 5000, threads, 100,
                          lambda rows: (np.empty(rows, dtype=int),)) == chunk_ranges(5000, 100)

    CHUNK = 16

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_each_body_gets_its_rows_of_one_workspace(self, threads, n):
        made = []

        def factory(rows):
            made.append((np.empty((rows, 3)), np.empty((rows, 2, 5), dtype=complex)))
            return made[-1]

        def body(i, start, stop, ws):
            assert [w.shape for w in ws] == [(stop - start, 3), (stop - start, 2, 5)]
            owners = [j for j, held in enumerate(made)
                      if all(np.shares_memory(w, h) for w, h in zip(ws, held))]
            assert len(owners) == 1, "a body's arrays are not rows of one workspace"
            return stop - start

        sizes = map_chunks(body, n, threads, self.CHUNK, factory)
        assert sizes == [stop - start for _, start, stop in chunk_ranges(n, self.CHUNK)]
        assert [w.shape[0] for w, _ in made] == [min(n, self.CHUNK)] * len(made)
