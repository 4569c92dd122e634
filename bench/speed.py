"""Correct operation times for the speed of a shared, noisy CPU.

On a core shared with other tenants the same Python code runs up to
about 1.5 times slower for seconds or minutes at a stretch, so raw wall
times of one build differ more between runs than a regression bound can
absorb.  A fixed probe loop is timed every PERIOD_S during each
operation, and just before and after it.  The operation's time, less the
time spent in probes, is scaled by REF_S over the median probe time, which
gives the time the operation would take at the probe's reference speed.

Only `signal` and `time` are imported, so that a fresh interpreter can
start the probe before importing dworklab without importing any module
dworklab's own import would otherwise pay for.
"""

import signal
from time import perf_counter

# One probe on an idle core of the 2-vCPU Xeon virtual machine the
# benchmark was tuned on.  Of the probes tried (integer arithmetic, dict
# updates, tuple and dict building, string joins), dict updates tracked
# the workloads' own slowdowns most closely.
REF_S = 120e-6
PERIOD_S = 0.02
_LOOP = tuple(range(100)) * 20


class SpeedProbe:
    """Context manager that samples the probe on SIGALRM while active."""

    def __init__(self):
        self.samples = []
        self._old = None

    def probe(self):
        t0 = perf_counter()
        counts = {}
        for x in _LOOP:
            counts[x] = counts.get(x, 0) + 1
        self.samples.append(perf_counter() - t0)

    def _on_alarm(self, _signum, _frame):
        self.probe()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self):
        """Probe once; returns the mark `corrected` needs."""
        self.probe()
        return len(self.samples)

    def corrected(self, mark, raw):
        """`raw` seconds since `start` returned `mark`, at reference speed."""
        self.probe()
        got = self.samples[mark - 1:]
        inside = sum(got[1:-1])
        ordered = sorted(got)
        mid = len(ordered) // 2
        median = (ordered[mid] if len(ordered) % 2
                  else (ordered[mid - 1] + ordered[mid]) / 2)
        return (raw - inside) * REF_S / median
