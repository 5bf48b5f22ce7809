import inspect

from qtcov import errors

# the classes that code catches and so tells apart
TOLD_APART = {"QtcovError", "MissingLag", "EmptyTable"}


def test_errors_defines_only_the_classes_told_apart():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == TOLD_APART
    assert all(issubclass(getattr(errors, name), errors.QtcovError) for name in classes)
    assert issubclass(errors.QtcovError, ValueError)
