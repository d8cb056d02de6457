"""Tests for the source-level debugger."""

import pytest

from repro.debugger import Debugger
from repro.errors import DebuggerError, SymbolNotFound

SOURCE = """
int total;
int history[4];

void record(int v) {
  static int cursor;
  history[cursor % 4] = v;
  cursor = cursor + 1;
}

int accumulate(int n) {
  int i;
  int local_sum;
  local_sum = 0;
  for (i = 1; i <= n; i = i + 1) {
    local_sum = local_sum + i;
  }
  return local_sum;
}

int main() {
  int *node;
  total = accumulate(4);
  record(total);
  node = malloc(8);
  node[0] = total;
  node[1] = total * 2;
  record(node[1]);
  free(node);
  return total;
}
"""

STRATEGIES = ["native", "vm", "trap", "code"]


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestDataBreakpointsAcrossStrategies:
    def test_global_watch(self, strategy):
        debugger = Debugger.from_source(SOURCE, strategy=strategy)
        bp = debugger.watch_global("total")
        outcome = debugger.run()
        assert outcome.finished
        assert outcome.state.exit_value == 10
        assert bp.hit_count == 1
        assert bp.events[0].value == 10

    def test_stop_and_resume(self, strategy):
        debugger = Debugger.from_source(SOURCE, strategy=strategy)
        debugger.watch_global("total", action="stop")
        outcome = debugger.run()
        assert outcome.stopped
        assert "total" in outcome.stop.describe()
        outcome = debugger.cont()
        assert outcome.finished
        assert outcome.state.exit_value == 10


class TestLocalWatch:
    def test_local_across_loop_iterations(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.watch_local("accumulate", "local_sum")
        outcome = debugger.run()
        assert outcome.finished
        # init + 4 additions
        assert bp.hit_count == 5
        assert [e.value for e in bp.events] == [0, 1, 3, 6, 10]

    def test_param_watch(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.watch_local("record", "v")
        outcome = debugger.run()
        assert outcome.finished
        # prologue spill per call: two calls
        assert bp.hit_count == 2
        assert [e.value for e in bp.events] == [10, 20]

    def test_static_local_watch(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.watch_local("record", "cursor")
        outcome = debugger.run()
        assert outcome.finished
        assert [e.value for e in bp.events] == [1, 2]

    def test_local_in_recursive_function(self):
        source = """
        int depth_product(int n) {
          int here;
          here = n;
          if (n <= 1) return 1;
          return here * depth_product(n - 1);
        }
        int main() { return depth_product(4); }
        """
        debugger = Debugger.from_source(source, strategy="code")
        bp = debugger.watch_local("depth_product", "here")
        outcome = debugger.run()
        assert outcome.finished
        assert outcome.state.exit_value == 24
        assert sorted(e.value for e in bp.events) == [1, 2, 3, 4]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_watch_toggled_during_recursion_keeps_each_frames_monitor(self, strategy):
        """An instantiation entered while the watch is disabled has no
        monitor, and its exit must not remove an outer frame's."""
        source = """
        int f(int n) {
          int x;
          x = n;
          if (n > 0) { f(n - 1); }
          x = 100 + n;
          return x;
        }
        int main() { return f(2); }
        """
        debugger = Debugger.from_source(source, strategy=strategy)
        watch = debugger.watch_local("f", "x")
        debugger.break_at("f")
        outcome = debugger.run()  # stopped at f(2)
        outcome = debugger.cont()  # stopped at f(1)
        watch.enabled = False
        outcome = debugger.cont()  # stopped at f(0)
        watch.enabled = True
        outcome = debugger.cont()
        assert outcome.finished
        logged = [(e.value, e.call_stack.count("f")) for e in watch.events]
        assert logged == [(2, 1), (101, 2), (102, 1)]
        assert debugger.wms.active == []

    def test_unknown_local_raises(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        with pytest.raises(SymbolNotFound):
            debugger.watch_local("accumulate", "nope")


class TestHeapWatch:
    def test_heap_object_watch(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.watch_heap("main", alloc_ordinal=0)
        outcome = debugger.run()
        assert outcome.finished
        assert [e.value for e in bp.events] == [10, 20]

    def test_heap_monitor_removed_on_free(self):
        source = """
        int main() {
          int *a; int *b;
          a = malloc(8);
          a[0] = 1;
          free(a);
          b = malloc(8);    /* reuses a's address */
          b[0] = 2;
          free(b);
          return 0;
        }
        """
        debugger = Debugger.from_source(source, strategy="code")
        bp = debugger.watch_heap("main", alloc_ordinal=0)
        outcome = debugger.run()
        assert outcome.finished
        # Only the first object's write is caught, even though the second
        # lands at the same address.
        assert [e.value for e in bp.events] == [1]

    def test_heap_watch_follows_realloc(self):
        """Object identity survives realloc (paper footnote 4)."""
        source = """
        int main() {
          int *p;
          p = malloc(8);
          p[0] = 5;
          p = realloc(p, 4000);
          p[500] = 6;
          free(p);
          return 0;
        }
        """
        debugger = Debugger.from_source(source, strategy="code")
        bp = debugger.watch_heap("main", alloc_ordinal=0)
        outcome = debugger.run()
        assert outcome.finished
        assert [e.value for e in bp.events] == [5, 6]

    def test_context_filter(self):
        source = """
        int *leak;
        void helper() { leak = malloc(4); leak[0] = 7; }
        int main() {
          int *mine;
          helper();
          mine = malloc(4);
          mine[0] = 8;
          free(mine);
          free(leak);
          return 0;
        }
        """
        debugger = Debugger.from_source(source, strategy="code")
        bp = debugger.watch_heap("helper")
        outcome = debugger.run()
        assert outcome.finished
        # Only the allocation made while helper() was on the stack.
        assert [e.value for e in bp.events] == [7]


class TestConditionsAndControl:
    def test_conditional_breakpoint(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.watch_local(
            "accumulate", "local_sum", condition=lambda v: v > 4
        )
        debugger.run()
        assert [e.value for e in bp.events] == [6, 10]

    def test_conditional_stop(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        debugger.watch_local(
            "accumulate", "local_sum", condition=lambda v: v == 6, action="stop"
        )
        outcome = debugger.run()
        assert outcome.stopped
        assert outcome.stop.event.value == 6
        assert debugger.cont().finished

    def test_control_breakpoint(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.break_at("record", action="log")
        outcome = debugger.run()
        assert outcome.finished
        assert bp.hit_count == 2

    def test_control_breakpoint_stop_and_inspect(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        debugger.break_at("accumulate")
        outcome = debugger.run()
        assert outcome.stopped
        assert debugger.call_stack() == ["main", "accumulate"]
        assert debugger.read_local("accumulate", "n") == 4
        assert debugger.cont().finished

    def test_disabled_breakpoint_silent(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp = debugger.watch_global("total")
        bp.enabled = False
        debugger.run()
        assert bp.hit_count == 0


class TestSessionLifecycle:
    def test_run_twice_rejected(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        debugger.run()
        with pytest.raises(DebuggerError):
            debugger.run()

    def test_cont_before_run_rejected(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        with pytest.raises(DebuggerError):
            debugger.cont()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DebuggerError):
            Debugger.from_source(SOURCE, strategy="magic")

    def test_read_global(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        debugger.run()
        assert debugger.read_global("total") == 10

    def test_events_carry_locations(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        debugger.watch_global("total")
        debugger.run()
        event = debugger.events[0]
        assert "main" in event.location
        assert event.call_stack[-1] == "main"

    def test_multiple_breakpoints_independent(self):
        debugger = Debugger.from_source(SOURCE, strategy="code")
        bp_total = debugger.watch_global("total")
        bp_hist = debugger.watch_global("history")
        outcome = debugger.run()
        assert outcome.finished
        assert bp_total.hit_count == 1
        assert bp_hist.hit_count == 2
