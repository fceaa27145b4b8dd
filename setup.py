"""Package metadata for ``repro`` (``src`` layout).

``pip install -e .`` installs it.  On an offline host whose setuptools
lacks the ``wheel`` package (needed for PEP 660 editable builds),
``python setup.py develop --no-deps`` does the same.
"""

import pathlib
import re

from setuptools import find_packages, setup

_VERSION_FILE = pathlib.Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of 'Do Large Language Models Speak Scientific Workflows?'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=1.26"],
    # parsing and validating Wilkins YAML configs
    extras_require={"wilkins": ["PyYAML>=6"]},
)
