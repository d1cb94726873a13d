"""The call log of the refutation rule, read by the tests that check where
the oracle's searches run and what they are given."""

import pytest

from p5house import decomposer, oracle


class CallLog(list):
    """The calls of the oracle's searches and of decompose's build, in call
    order, one tuple each:

    - ("twin", masks, first, stop) for oracle._twin_kernel, the prefix walk;
    - ("scan", graph, kind) for oracle._search, the plain-walk dispatch;
    - ("kernel", masks, cycle, first) for oracle._kernel, the plain walk;
    - ("least_hit", nodes, kind) for oracle._least_hit;
    - ("reps", graph, root) for oracle._prime_representatives;
    - ("build", root) as decomposer._build starts, and ("built",) or
      ("raised",) as it ends.

    Each entry is made by a function with the logged function's parameters,
    and every argument is passed on, so a changed signature fails at its
    call, not as a missing entry."""

    def of(self, *names):
        return [call for call in self if call[0] in names]

    def steps(self):
        """The searches of whole graphs as decompose meets them: the prefix
        walks, the scans, the reads of prime nodes and the build's ends."""
        return self.of("twin", "scan", "least_hit", "built", "raised")

    def roots(self):
        """The decomposition root of every prime-node read and build."""
        return [call[-1] for call in self.of("reps", "build")]

    @staticmethod
    def prefix(g):
        """The step of _p5_scan's twin walk over g's first _PREFIX ranks."""
        return ("twin", g._masks, 0, oracle._PREFIX)

    @staticmethod
    def reads(nodes, kind):
        """The steps of one _least_hit over ``nodes``: the call, then a scan
        of each graph."""
        return [("least_hit", nodes, kind)] + [("scan", h, kind) for h in nodes]


@pytest.fixture
def calls(monkeypatch):
    """A CallLog of everything the oracle and decompose do in the test."""
    log = CallLog()

    def spy(module, name, entry):
        real = getattr(module, name)

        def logged(*args):
            log.append(entry(*args))
            return real(*args)

        monkeypatch.setattr(module, name, logged)

    spy(oracle, "_twin_kernel", lambda masks, first, stop: ("twin", masks, first, stop))
    spy(oracle, "_search", lambda g, kind, first=0: ("scan", g, kind))
    spy(oracle, "_kernel", lambda masks, cycle, first=0: ("kernel", masks, cycle, first))
    spy(oracle, "_least_hit", lambda nodes, kind, v0_from=None: ("least_hit", nodes, kind))
    spy(oracle, "_prime_representatives", lambda g, root: ("reps", g, root))
    build = decomposer._build

    def build_logged(g, events, cycles, root):
        log.append(("build", root))
        try:
            tree = build(g, events, cycles, root)
        except Exception:
            log.append(("raised",))
            raise
        log.append(("built",))
        return tree

    monkeypatch.setattr(decomposer, "_build", build_logged)
    return log
