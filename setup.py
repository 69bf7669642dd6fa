"""Legacy setup shim.

The offline reproduction environment lacks the ``wheel`` package, so PEP 660
editable installs are unavailable; this shim lets ``pip install -e .`` fall
back to ``setup.py develop``.  There is no ``pyproject.toml``: the package
metadata below is all there is.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
