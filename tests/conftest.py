from importlib.resources import files


def fixture_path(name: str):
    """Path to a bundled fixture table (see gsaudit/fixtures/)."""
    return files("gsaudit.fixtures").joinpath(name)
