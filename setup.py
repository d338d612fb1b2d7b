"""Setuptools entry point (kept for environments without PEP 660 support)."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Non-Uniform Dependences Partitioned by Recurrence "
        "Chains' (Yu & D'Hollander, ICPP 2004)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # the calibrated strategy-selection table plan() ranks strategies by
    package_data={"repro.core": ["selection_table.json"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
