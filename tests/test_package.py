"""The package: each library module's ``__all__`` is what ``karmic`` exports,
pyproject.toml declares what README states, and README's quick tour runs."""

from __future__ import annotations

import importlib
import pathlib
import re
import tomllib

import karmic
import karmic.cli
import karmic.dataio

LIBRARY = ("confusion", "errors", "metrics", "thresholds", "scorers", "synth", "pipeline",
           "experiments")


def test_every_export_appears_once_and_is_the_object_its_module_defines() -> None:
    assert karmic.__all__[0] == "__version__"
    assert len(karmic.__all__) == len(set(karmic.__all__))
    listed = ["__version__"]
    for name in LIBRARY:
        module = importlib.import_module(f"karmic.{name}")
        for public in module.__all__:
            obj = getattr(module, public)
            assert obj.__module__ == module.__name__, public
            assert getattr(karmic, public) is obj, public
        listed += module.__all__
    assert sorted(listed) == sorted(karmic.__all__)


def test_file_io_and_cli_names_are_not_exported() -> None:
    for module in (karmic.dataio, karmic.cli):
        defined = {name for name, obj in vars(module).items()
                   if getattr(obj, "__module__", None) == module.__name__}
        assert defined, module.__name__
        assert not defined & set(karmic.__all__), module.__name__
        assert not defined & set(vars(karmic)), module.__name__


def test_helpers_left_out_of_the_api_stay_importable_from_their_modules() -> None:
    helpers = {
        "experiments": ("parse_config_text", "model_from_config", "estimator_from_config",
                        "eval_seed_for"),
        "metrics": ("DOMAIN_EPS", "metric_values_masked", "metric_gradients_masked"),
        "pipeline": ("population_confusion_of_model",),
        "synth": ("model_from_dict",),
        "thresholds": ("default_tolerance",),
    }
    for module, names in helpers.items():
        for name in names:
            assert hasattr(importlib.import_module(f"karmic.{module}"), name), name
            assert not hasattr(karmic, name), name


def test_the_version_is_stated_once_in_the_package() -> None:
    with open(pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "karmic.__version__"}


def test_the_dependency_floors_match_the_readme() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    installation = (root / "README.md").read_text(encoding="utf-8").split("## Installation", 1)[1]
    installation = installation.split("\n## ", 1)[0]
    stated_python = re.findall(r"Python >= ([\d.]+)", installation)
    assert [f">={floor}" for floor in stated_python] == [project["requires-python"]]
    stated = dict(re.findall(r"(numpy|scipy) \(>= ([\d.]+)", installation))
    declared = project["dependencies"]
    assert sorted(declared) == [f"{name}>={floor}" for name, floor in sorted(stated.items())]
    assert set(stated) == {"numpy", "scipy"}


def test_readme_quick_tour_runs(capsys) -> None:
    # README's first Python block, run as written, so its code cannot drift
    # from the API it shows
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    tour = readme.split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Quick tour)", "exec"), {"__name__": "quick_tour"})
    delta, n1, n2, regret, delta_star, u_star = map(float, capsys.readouterr().out.split())
    assert (n1, n2) == (2000, 2000)
    assert 0.0 < delta < 1.0 and 0.0 < delta_star < 1.0 and 0.0 < u_star <= 1.0
    assert regret >= -1e-9
