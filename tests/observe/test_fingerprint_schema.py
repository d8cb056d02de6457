"""Environment-fingerprint stability and manifest schema-version guards."""

from __future__ import annotations

import json

import pytest

from repro.errors import ManifestFormatError
from repro.observe.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    environment_fingerprint,
    load_manifest,
)

pytestmark = pytest.mark.observe

#: The documented field set (docs/OBSERVABILITY.md, `environment` row).
DOCUMENTED_FIELDS = {
    "python", "implementation", "platform", "machine", "numpy", "executable",
}


class TestEnvironmentFingerprint:
    def test_same_process_gives_identical_fingerprint(self):
        assert environment_fingerprint() == environment_fingerprint()

    def test_field_set_matches_the_docs(self):
        assert set(environment_fingerprint()) == DOCUMENTED_FIELDS

    def test_all_fields_are_non_empty_strings(self):
        for key, value in environment_fingerprint().items():
            assert isinstance(value, str) and value, key

    def test_manifest_embeds_the_fingerprint_by_default(self):
        manifest = RunManifest(target="t")
        assert manifest.environment == environment_fingerprint()


class TestSchemaVersionRejection:
    def _write_manifest(self, tmp_path, mutate):
        path = tmp_path / "m.json"
        RunManifest(target="t").write(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        mutate(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_load_manifest_rejects_future_schema(self, tmp_path):
        path = self._write_manifest(
            tmp_path,
            lambda d: d.update(schema_version=MANIFEST_SCHEMA_VERSION + 1),
        )
        with pytest.raises(ManifestFormatError, match="schema_version"):
            load_manifest(path)

    def test_load_manifest_rejects_non_int_schema(self, tmp_path):
        path = self._write_manifest(
            tmp_path, lambda d: d.update(schema_version="1")
        )
        with pytest.raises(ManifestFormatError, match="schema_version"):
            load_manifest(path)

    def test_load_manifest_rejects_missing_keys(self, tmp_path):
        path = self._write_manifest(tmp_path, lambda d: d.pop("stages"))
        with pytest.raises(ManifestFormatError, match="missing keys"):
            load_manifest(path)

    def test_current_schema_round_trips(self, tmp_path):
        path = tmp_path / "ok.json"
        RunManifest(target="round-trip").write(path)
        manifest = load_manifest(path)
        assert manifest.schema_version == MANIFEST_SCHEMA_VERSION
        assert manifest.target == "round-trip"
