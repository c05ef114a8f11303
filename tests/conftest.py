"""Set-up shared by the whole suite."""

import warnings

# When a property fails, hypothesis's pytest plugin imports hypothesis.extra._patching,
# which imports libcst, which builds a mypy_extensions.TypedDict. Under -W error the
# DeprecationWarning that raises escapes the plugin's report hook, and the run ends in
# INTERNALERROR without listing the failure. So the module is imported here, once, with
# that one warning ignored; where libcst is not installed the import fails and nothing
# changes.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
