"""Legacy setup shim.

The canonical project metadata lives in ``pyproject.toml``; this file
only serves tools that still invoke ``setup.py`` directly.
"""

from setuptools import setup

setup()
