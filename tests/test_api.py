"""The public names of the package: adding or removing one is a deliberate
change to this list."""

import subprocess
import sys
import textwrap
from pathlib import Path

import corrpca

PUBLIC_NAMES = [
    "AlignmentReport",
    "EigenPairs",
    "ExperimentSpec",
    "MCPIConfig",
    "PCAResult",
    "cholesky",
    "component_alignment",
    "fit",
    "generate_experiment",
    "reconstruction_error",
    "sample_mvn",
    "standard_pca",
    "sym_evd",
    "weighted_scatter",
]


def test_public_names_pinned_and_resolve():
    assert corrpca.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(corrpca, name), name


def test_public_names_are_not_the_reference():
    # the paper-literal steps are imported from corrpca.reference, never
    # from the package root
    for name in corrpca.__all__:
        assert getattr(corrpca, name).__module__ != "corrpca.reference", name


def test_reference_aliases_are_the_reference_objects():
    # production modules keep these names only as aliases of corrpca.reference,
    # for bench/tracing.py
    from corrpca import correntropy, linalg, mcpi, reference

    aliases = {
        correntropy: ["residual_weights"],
        linalg: ["power_iteration", "orthogonalize_against"],
        mcpi: ["build_deflated_operator", "woodbury_update"],
    }
    for module, names in aliases.items():
        for name in names:
            assert getattr(module, name) is getattr(reference, name), (module.__name__, name)


def test_import_and_one_replicate_load_no_cli_or_io_modules():
    # In a fresh interpreter, `import corrpca` and one Monte Carlo replicate
    # (draw, fit plain and centred, plain PCA, alignment) load none of the
    # CLI's modules and not numpy.ma, which np.median would load: what they
    # load is the import time and memory every fit pays.
    src = str(Path(corrpca.__file__).resolve().parents[1])
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import numpy as np
        import corrpca

        HEAVY = ("corrpca.cli", "argparse", "json", "gzip", "numpy.ma")
        print(*[m for m in HEAVY if m in sys.modules])
        scatter = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])
        spec = corrpca.ExperimentSpec(n=400, p=3, scatter=scatter, outlier_fraction=0.05, seed=1)
        X, _ = corrpca.generate_experiment(spec)
        truth = corrpca.sym_evd(scatter).vectors
        for result in (corrpca.fit(X), corrpca.fit(X, corrpca.MCPIConfig(center=True)),
                       corrpca.standard_pca(X)):
            corrpca.component_alignment(result.components, truth)
        print(*[m for m in HEAVY if m in sys.modules])
    """)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    after_import, after_replicate = run.stdout.split("\n")[:2]
    assert after_import == "", after_import
    assert after_replicate == "", after_replicate
