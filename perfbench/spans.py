"""In-memory span recorder for the traced benchmark run.

A span covers one call into a library layer (or one benchmark round,
operation or check).  Each records its name, start and end on the
perf_counter clock, the id of the enclosing span, and the system CPU time
and minor page faults the process accrued inside it (getrusage on the
process itself), plus the memory high-water mark at its end and any work
counts the caller attaches (as keyword arguments, or by updating the record
the context manager yields).  Spans stay in memory until `write` dumps them
as JSON lines.  A disabled recorder records nothing: `span` yields None
without reading any clock.
"""

import json
import resource
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **work):
        if not self.enabled:
            return nullcontext()
        return self._span(name, work)

    @contextmanager
    def _span(self, name: str, work: dict):
        span_id = len(self.spans)
        record = {"id": span_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(span_id)
        before = resource.getrusage(resource.RUSAGE_SELF)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            after = resource.getrusage(resource.RUSAGE_SELF)
            self._stack.pop()
            record["sys_s"] = after.ru_stime - before.ru_stime
            record["minflt"] = after.ru_minflt - before.ru_minflt
            record["maxrss_mib"] = after.ru_maxrss / 1024  # ru_maxrss is KiB on Linux
            record.update(work)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
