"""Loading classifier descriptions from JSON files.

A description names a classifier kind, its feature domains, its ordered
classes, and kind-specific parameters. All files carry "schema": 1.
"""

from __future__ import annotations

import json
from typing import Any

from .classifiers import (
    AppendixCnfClassifier,
    ClassifierOracle,
    ExternalProcessOracle,
    GradeClassifier,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
)
from .domain import ClassOrder, FeatureDomain, FeatureSpace, _is_int

SCHEMA_VERSION = 1

KINDS = ("grade", "linear", "monotone-dnf", "appendix-cnf", "external")


class SpecError(ValueError):
    """A classifier description failed validation at load time."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _parse_space(entries: Any) -> FeatureSpace:
    _require(isinstance(entries, list) and entries, "'features' must be a nonempty list")
    domains = []
    names = []
    for idx, entry in enumerate(entries, start=1):
        _require(isinstance(entry, dict), f"feature {idx} must be an object")
        kind = entry.get("kind", "real")
        _require("lower" in entry and "upper" in entry, f"feature {idx} needs 'lower' and 'upper' bounds")
        try:
            domains.append(FeatureDomain(kind, entry["lower"], entry["upper"]))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"feature {idx}: {exc}") from exc
        names.append(str(entry.get("name", f"f{idx}")))
    return FeatureSpace(tuple(domains), tuple(names))


def _parse_classes(labels: Any) -> ClassOrder:
    _require(isinstance(labels, list) and labels, "'classes' must be a nonempty list")
    return ClassOrder(tuple(str(l) for l in labels))  # build_oracle makes a ValueError a SpecError


def build_oracle(spec: dict) -> ClassifierOracle:
    """Construct a classifier oracle from a parsed description."""
    _require(isinstance(spec, dict), "classifier description must be a JSON object")
    _require(spec.get("schema") == SCHEMA_VERSION, f"missing or unsupported 'schema' (expected {SCHEMA_VERSION})")
    kind = spec.get("kind")
    _require(kind in KINDS, f"'kind' must be one of {', '.join(KINDS)}")
    try:
        return _construct(kind, spec)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        # a constructor rejected a parameter of the right JSON shape
        raise SpecError(str(exc)) from exc


def _construct(kind: str, spec: dict) -> ClassifierOracle:
    if kind == "grade":
        oracle = GradeClassifier()
        if "features" in spec:
            _require(
                _parse_space(spec["features"]).domains == oracle.space.domains,
                "the grade classifier has four real features bounded [0, 10]",
            )
            # the records name the built-in features, so a given name must be that one
            names = [entry.get("name", name) for entry, name in zip(spec["features"], oracle.space.feature_names)]
            _require(names == list(oracle.space.feature_names), "the grade features are quiz, exam, homework, project")
        if "classes" in spec:
            _require(
                _parse_classes(spec["classes"]) == oracle.classes,
                "the grade classifier's classes are F, E, D, C, B, A",
            )
        return oracle

    if kind == "linear":
        space = _parse_space(spec.get("features"))
        classes = _parse_classes(spec.get("classes"))
        _require(isinstance(spec.get("weights"), list), "'weights' must be a list")
        _require(isinstance(spec.get("thresholds"), list), "'thresholds' must be a list")
        return LinearThresholdClassifier(space, spec["weights"], spec["thresholds"], classes)

    if kind == "monotone-dnf":
        space = _parse_space(spec.get("features"))
        classes = _parse_classes(spec.get("classes", ["0", "1"]))
        _require(isinstance(spec.get("terms"), list), "'terms' must be a list of feature-index lists")
        return MonotoneDnfClassifier(space, spec["terms"], classes)

    if kind == "appendix-cnf":
        variables = spec.get("variables")
        _require(_is_int(variables) and variables >= 1, "'variables' must be a positive integer")
        _require(isinstance(spec.get("clauses"), list), "'clauses' must be a list of literal lists")
        classes = _parse_classes(spec.get("classes", ["0", "1"]))
        if "features" in spec:
            space = _parse_space(spec["features"])
            _require(
                space.arity == 2 * variables,
                f"appendix-cnf over {variables} variables needs {2 * variables} boolean features",
            )
        else:
            space = FeatureSpace(tuple(FeatureDomain("boolean", 0, 1) for _ in range(2 * variables)))
        return AppendixCnfClassifier(space, spec["clauses"], classes)

    # external
    space = _parse_space(spec.get("features"))
    classes = _parse_classes(spec.get("classes"))
    command = spec.get("command")
    _require(
        isinstance(command, str) or (isinstance(command, list) and all(isinstance(c, str) for c in command)),
        "'command' must be a string or a list of strings",
    )
    return ExternalProcessOracle(command, space, classes)


def load_spec(path: str) -> dict:
    """Read and minimally validate a JSON classifier description."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(spec, dict), "classifier description must be a JSON object")
    return spec
