"""Setuptools shim.

The offline environment has no ``wheel`` package, so PEP 517 editable
installs are unavailable; this shim lets ``pip install -e . --no-build-isolation
--no-use-pep517`` (and plain ``python setup.py develop``) work.
"""

from setuptools import setup

setup(
    # numpy backs the columnar TracePack, the only trace representation the
    # simulator runs on (struct-of-arrays traces, vectorized statistics, the
    # lane-batched predictor bank).
    install_requires=["numpy>=1.22"],
)
