"""The default sweep and acceptance criterion 8's sweep write the outputs pinned in tests/data."""
import pytest

from pinned_sweeps import DATA, SWEEPS, differences, pinned_files


@pytest.mark.parametrize("name", SWEEPS)
def test_a_sweep_writes_its_pinned_outputs(name, request):
    # each sweep is its session fixture, shared with the acceptance criteria that read it
    config, _, summary = request.getfixturevalue(name)
    pinned = {path.name: path.read_bytes() for path in (DATA / name).iterdir()}
    found = differences(pinned_files(config.output_dir, summary), pinned)
    assert not found, "\n".join(found)
