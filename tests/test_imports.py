"""What a training run imports: no YAML parser, no masked arrays, no logging.

Only the command line reads YAML, so ``import masf`` must not load PyYAML;
no training or diagnostics call may reach ``numpy.ma`` (in numpy 2.4,
``np.unique`` without ``return_inverse`` imports it); and the library has no
logger, so nothing loads ``logging``. Each module costs every run its
resident memory. The run happens in a fresh interpreter, as
pytest itself may have imported either module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import masf

SCRIPT = """
import sys

import numpy as np

from masf import autodiff as ad
from masf import bench, engine, harness, nets

config = harness.canonical_experiment_config()
datasets = bench.canonical_datasets()
state, train, holdout = harness.prepare_run(config, (True, True, True),
                                            datasets, 3, 0)
state = engine.train(state, train, 3)
target = datasets[3]
harness.evaluate_accuracy(state.psi, state.theta, target)
harness.margin_statistic(state.psi, state.phi, holdout[0], target, 100,
                         np.random.default_rng(0))
harness.target_alignment(state.psi, state.theta, holdout[0], target,
                         state.hp.tau)
for part in holdout.values():
    z = nets.feature_forward(state.psi, ad.const(part.features))
    harness.silhouette_score(nets.metric_forward(state.phi, z).value,
                             part.labels)
print("after run:", "yaml" in sys.modules, "numpy.ma" in sys.modules,
      "logging" in sys.modules)
import masf.cli
print("after cli:", "yaml" in sys.modules)
"""


def test_training_run_imports_no_yaml_and_no_masked_arrays():
    path = [str(Path(masf.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["after run: False False False", "after cli: True"]
