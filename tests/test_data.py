import hashlib

from lutnet import data as dataio

# sha256 of each IDX file of generate_toy_dataset(tmp, 300, 100, seed=123),
# recorded from the renderer that drew each image on its own
TOY_SET_PIN = {
    dataio.TEST_IMAGES: "83993302647d892ce57b8af3facbeca521f54207008b523c478b40c6192fbd2e",
    dataio.TEST_LABELS: "0e3287d34942b729c6c170f0c4e0bfb17491327f5da8b174d027982cf5dd21f3",
    dataio.TRAIN_IMAGES: "ad85dfcdf4b5792156009df1f5fba897ec902ffbd6b2c394879fca88987c04e6",
    dataio.TRAIN_LABELS: "18544951808334e250ebe44740957edee70aa39b065f2664c07cc51ba28d9e7b",
}


def test_toy_set_matches_pin(tmp_path):
    dataio.generate_toy_dataset(tmp_path, 300, 100, seed=123)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TOY_SET_PIN}
    assert got == TOY_SET_PIN
