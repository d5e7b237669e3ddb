"""The benchmark's tracer patches coldstart functions by module and name, so
renaming one of them must fail here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from coldstart.ingest import read_episodes

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_coldstart_function():
    tracer = load_tracer()
    missing = [
        f"coldstart.{layer}.{name}"
        for layer, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"coldstart.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_episode_rows_count_data_rows(tmp_path):
    # the tracer records ingest.rows from the value read_episodes returns
    path = tmp_path / "episodes.csv"
    path.write_text(
        "series_id,episode_id,release_date,length,views\n"
        "S1,E1,2016-01-01,30m,10\nS1,E2,2016-01-08,1h,20\nS2,E1,2016-02-01,00:45,30\n"
    )
    attrs = load_tracer().RESULT_ATTRS["ingest.read_episodes"]
    assert attrs(read_episodes(path), (path,), {}) == {"rows": 3}
