import pytest

from lutnet import cli


@pytest.mark.parametrize("epochs", ["1,2", "1,x,1"])
def test_malformed_epochs_is_a_usage_error(epochs, capsys):
    assert cli.main(["train", "--epochs", epochs]) == 2
    assert "--epochs" in capsys.readouterr().err
