"""The paper's pipeline runs without importing scipy or the oracles.

Algorithm 1, the KronFit baseline, the SKG sampler with its matching
counts and an uncached ``/release`` need only edges, degrees and one
triangle pass, all of which :attr:`Graph.csr` serves in numpy.  scipy
loads only inside the calls that use it (hop plot, spectra,
``Graph.adjacency``).  The Python oracles of :mod:`repro.reference` are
for the equivalence suites and the benches: no runtime module imports
them.

The guard runs in a fresh interpreter, since the test process itself has
both loaded.  It checks the parent process and every worker of the
serve pool, which fork from the parent and would otherwise import them
on their first fit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GUARD = textwrap.dedent(
    """
    import http.client
    import json
    import os
    import sys
    import tempfile
    import time

    from repro.core.estimator import PrivateKroneckerEstimator
    from repro.kronecker.kronfit import KronFitEstimator
    from repro.kronecker.sampling import sample_skg, sample_skg_statistics
    from repro.runtime.engine import persistent_executor, pool_worker_pids
    from repro.serve.config import ServeConfig
    from repro.serve.server import ServeRuntime
    from repro.stats.counts import matching_statistics
    from repro.tracking.record import environment_fingerprint


    def loaded():
        return {
            "scipy": "scipy" in sys.modules,
            "reference": any(name.split(".")[:2] == ["repro", "reference"]
                             for name in sys.modules),
        }


    def worker_state(_):
        time.sleep(0.2)  # long enough that every idle worker takes one
        return os.getpid(), loaded()


    theta = [0.99, 0.45, 0.25]
    graph = sample_skg(theta, 10, seed=1)
    PrivateKroneckerEstimator(0.2, 0.01, seed=0).fit(graph)
    KronFitEstimator(n_iterations=3, seed=0).fit(graph)
    assert sample_skg_statistics(theta, 10, seed=2)[1] == matching_statistics(
        sample_skg(theta, 10, seed=2)
    )
    environment_fingerprint()  # what every run record is stamped with
    report = {"parent_after_fits": loaded()}

    with tempfile.TemporaryDirectory() as ledger:
        runtime = ServeRuntime(ServeConfig.resolve(
            port=0, n_jobs=2, ledger_dir=ledger, budget_epsilon=1.0, budget_delta=0.1,
        ))
        runtime.start()
        try:
            connection = http.client.HTTPConnection(*runtime.address, timeout=120)
            body = {"dataset": "as20", "epsilon": 0.2, "delta": 0.01, "count": 2, "seed": 1}
            connection.request("POST", "/release", json.dumps(body),
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            connection.close()
            report["release"] = [response.status, response.getheader("X-Repro-Cache")]
            workers = {}
            for _ in range(20):
                pool = persistent_executor(2)
                workers.update(pool.map(worker_state, range(2)))
                if set(pool_worker_pids()) <= set(workers):
                    break
            report["workers"] = {str(pid): loaded for pid, loaded in workers.items()}
            report["pool"] = sorted(map(str, pool_worker_pids()))
        finally:
            runtime.stop()
    report["parent"] = loaded()
    print(json.dumps(report))
    """
)


def test_pipeline_and_serve_workers_never_import_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", GUARD],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["release"] == [200, "miss"]
    clean = {"scipy": False, "reference": False}
    assert report["parent_after_fits"] == clean
    assert report["parent"] == clean
    assert report["pool"] and set(report["pool"]) <= set(report["workers"])
    assert all(state == clean for state in report["workers"].values()), report["workers"]


def test_run_records_read_the_scipy_version_without_importing_it():
    """The environment fingerprint reads scipy's version from its package
    metadata, which names the same release as ``scipy.__version__``."""
    import scipy

    from repro.tracking.record import environment_fingerprint

    assert environment_fingerprint()["scipy"] == scipy.__version__
