"""What-if search behaviour and the three CLI subcommands."""

import json

import numpy as np
import pytest

from repro.placement.mapping import is_permutation
from repro.replay.cli import main
from repro.replay.search import STRATEGIES, what_if_search


class TestWhatIfSearch:
    def test_candidates_sorted_and_k_valid(self, fig5_trace):
        res = what_if_search(fig5_trace)
        assert [c.strategy for c in res.candidates[:1]] != []
        spans = [c.makespan for c in res.candidates]
        assert spans == sorted(spans)
        assert set(c.strategy for c in res.candidates) == set(STRATEGIES)
        assert is_permutation(res.k)
        assert sorted(res.best.placement) == sorted(fig5_trace.binding)

    def test_identity_candidate_reproduces_recording(self, fig5_trace):
        res = what_if_search(fig5_trace, strategies=["identity"])
        cand = res.candidates[0]
        # Identity is an exact replay: the recording, to the bit.
        assert cand.makespan == res.recorded_makespan
        assert res.k.tolist() == list(range(fig5_trace.world_size))

    def test_search_beats_recorded_placement(self, fig5_trace):
        """The paper's premise on this workload: the monitored matrix
        admits a better-than-recorded placement."""
        res = what_if_search(fig5_trace)
        assert res.best.makespan < res.recorded_makespan
        assert res.speedup > 1.0

    def test_unknown_strategy_rejected(self, fig5_trace):
        with pytest.raises(ValueError, match="unknown search strategy"):
            what_if_search(fig5_trace, strategies=["identity", "bogus"])

    def test_empty_strategy_list_rejected(self, fig5_trace):
        with pytest.raises(ValueError, match="no search strategy given; "
                                             "have \\('identity'"):
            what_if_search(fig5_trace, strategies=[])

    def test_substitution_composes(self, fig5_trace):
        res = what_if_search(fig5_trace, strategies=["identity", "treematch"],
                             substitute={"bcast": "chain"})
        assert len(res.candidates) == 2
        assert res.meta["substitute"] == {"bcast": "chain"}

    def test_one_replay_per_distinct_placement(self, fig5_trace,
                                               monkeypatch):
        """The paper's baseline binding is round-robin, so on an
        rr-recorded trace ``identity`` and ``round_robin`` are one
        placement — scored by one replay — and memoising changes no
        candidate: each equals ``score_candidate`` run alone."""
        import dataclasses

        from repro.replay import search

        replayed = []

        def counting_replay(trace, binding=None, **kwargs):
            replayed.append(tuple(binding))
            return real_replay(trace, binding=binding, **kwargs)

        real_replay = search.replay
        monkeypatch.setattr(search, "replay", counting_replay)
        res = what_if_search(fig5_trace, seed=3)
        by_name = {c.strategy: c for c in res.candidates}
        assert by_name["identity"].placement == \
            by_name["round_robin"].placement == list(fig5_trace.binding)
        distinct = {tuple(c.placement) for c in res.candidates}
        assert len(replayed) == len(set(replayed)) == len(distinct) <= 5
        assert by_name["identity"].makespan == res.recorded_makespan

        def fields(cand):
            doc = dataclasses.asdict(cand)
            del doc["wall_seconds"]
            return doc

        for cand in res.candidates:
            alone = search.score_candidate(fig5_trace, cand.strategy, seed=3)
            assert fields(alone) == fields(cand)
        # A fresh search replays again: the memo lives in one call.
        before = len(replayed)
        what_if_search(fig5_trace, strategies=["identity", "round_robin"])
        assert len(replayed) == before + 1


    def test_a_search_substitutes_once(self, fig5_trace, monkeypatch):
        """The substituted run does not depend on the placement: one
        transform (and one compile of it) serves all six strategies —
        it used to be redone per distinct placement, five times here —
        and each candidate still equals ``score_candidate`` run alone."""
        import dataclasses

        from repro.replay import engine, patterns, search

        built = []

        def counting(trace, substitute):
            built.append(real(trace, substitute))
            return built[-1]

        real = patterns.apply_substitution
        monkeypatch.setattr(patterns, "apply_substitution", counting)
        res = what_if_search(fig5_trace, seed=3,
                             substitute={"reduce": "binomial"})
        assert len(res.candidates) == 6 and len(built) == 1
        assert built[0]._compiled is engine.compile_trace(built[0])

        def fields(cand):
            doc = dataclasses.asdict(cand)
            del doc["wall_seconds"]
            return doc

        for cand in res.candidates:
            alone = search.score_candidate(
                fig5_trace, cand.strategy, seed=3,
                substitute={"reduce": "binomial"})
            assert fields(alone) == fields(cand)
            assert cand.makespan == engine.replay(
                fig5_trace, binding=cand.placement,
                substitute={"reduce": "binomial"}).max_clock


@pytest.fixture(scope="module")
def recorded_cell(tmp_path_factory):
    """A small fig5 cell, recorded and dumped for the CLI to read."""
    from repro.experiments import fig5_collectives
    from repro.replay import autorecord

    path = str(tmp_path_factory.mktemp("cli") / "cell.trace")
    with autorecord.capture(meta={"workload": "fig5"}) as traces:
        fig5_collectives.run_cell("reduce", 2, sizes=(200_000,), reps=1,
                                  seed=0)
    traces[0].dump(path)
    return path


class TestCli:
    def test_every_subcommand_reads_a_trace(self, capsys):
        """Recording is the producers' job (``--trace-out``,
        ``autorecord.capture()``); this CLI has no door that writes."""
        with pytest.raises(SystemExit):
            main(["record", "-o", "never.trace"])
        assert "{replay,search,diff}" in capsys.readouterr().err

    def test_unknown_strategy_is_a_usage_error(self, recorded_cell, capsys):
        """It used to die in ``what_if_search``'s ``ValueError``."""
        with pytest.raises(SystemExit) as exc:
            main(["search", recorded_cell, "--strategies", "greedy,bogus"])
        assert exc.value.code == 2
        assert ("error: unknown search strategy 'bogus'; have ('identity', "
                "'treematch', 'round_robin', 'random', 'greedy', 'local')"
                ) in capsys.readouterr().err

    def test_replay_verify_identity(self, recorded_cell, capsys):
        assert main(["replay", recorded_cell, "--verify"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_verify_under_substitution_fails(self, recorded_cell, capsys):
        """It used to print the verify line for a run that verified
        nothing."""
        assert main(["replay", recorded_cell, "--substitute",
                     "reduce=binomial", "--verify"]) != 0
        said = capsys.readouterr()
        assert "verify requires an exact" in said.err
        assert "verify" not in said.out

    @pytest.mark.parametrize("flags", [
        ["--swap-pus", "0", "-1"], ["--swap-pus", "0", "-30"],
        ["--swap-pus", "0", "48"], ["--swap-pus", "0", "1000000"],
        ["--binding=" + ",".join(["-1"] + [str(pu) for pu in range(1, 48)])],
    ])
    def test_pu_outside_the_topology_fails(self, recorded_cell, capsys,
                                           flags):
        assert main(["replay", recorded_cell, *flags]) != 0
        said = capsys.readouterr()
        assert "rank 0 is bound to PU" in said.err
        assert "outside the topology's [0, 48)" in said.err
        assert "makespan" not in said.out

    def test_two_ranks_on_one_pu_fail(self, recorded_cell, capsys):
        binding = ",".join(["1"] + [str(pu) for pu in range(1, 48)])
        assert main(["replay", recorded_cell, "--binding=" + binding]) != 0
        said = capsys.readouterr()
        assert "ranks 0 and 1 are both bound to PU 1" in said.err
        assert "makespan" not in said.out

    def test_replay_json_swap(self, recorded_cell, tmp_path):
        out = str(tmp_path / "replay.json")
        assert main(["replay", recorded_cell, "--swap-pus", "0", "24",
                     "--json", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["exact"] is False
        assert doc["makespan"] > 0

    def test_diff_identical_traces(self, recorded_cell, capsys):
        assert main(["diff", recorded_cell, recorded_cell]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_substitution_differs(self, recorded_cell, capsys):
        rc = main(["diff", recorded_cell, recorded_cell,
                   "--substitute", "reduce=flat"])
        assert rc == 1

    def test_search_json_mode(self, recorded_cell, tmp_path):
        out = str(tmp_path / "search.json")
        assert main(["search", recorded_cell,
                     "--strategies", "identity,treematch",
                     "--json", out]) == 0
        doc = json.loads(open(out).read())
        assert [c["strategy"] for c in doc["candidates"]]
        assert is_permutation(doc["k"])

    @pytest.mark.parametrize("flags, kwargs", [
        ([], {}),
        (["--substitute", "reduce=binomial"],
         {"substitute": {"reduce": "binomial"}}),
    ])
    def test_search_json_is_the_library_document(self, recorded_cell,
                                                 tmp_path, flags, kwargs):
        """``--json`` writes ``what_if_search(...).to_dict()``, all of
        it, to the bit (but for the host-time ``wall_seconds``)."""
        from repro.replay.schema import ReplayTrace
        from tests.replay.conftest import answer_bits

        out = str(tmp_path / "search.json")
        assert main(["search", recorded_cell, "--seed", "3", *flags,
                     "--json", out]) == 0
        direct = what_if_search(ReplayTrace.load(recorded_cell), seed=3,
                                **kwargs)
        with open(out) as fh:
            assert answer_bits(json.load(fh)) == \
                answer_bits(direct.to_dict())


class TestRecorderGating:
    def test_no_recording_outside_capture(self):
        from repro.replay import autorecord
        from repro.simmpi import Cluster, Engine

        assert not autorecord.is_recording()
        engine = Engine(Cluster.plafrim(2, binding="rr"), seed=0)
        assert engine._rr is None

    def test_reentry_rejected(self):
        from repro.replay import autorecord

        with autorecord.capture():
            with pytest.raises(RuntimeError):
                autorecord.enable_to("/tmp/never.trace")
