import pytest

from voxlabel.scene import Box, CameraIntrinsics, ObjectInstance, Pose, SceneSpec


@pytest.fixture
def cam_small():
    """Tiny camera for brute-force oracles."""
    return CameraIntrinsics(fx=16.0, fy=16.0, cx=8.0, cy=6.0, width=16, height=12)


@pytest.fixture
def cam():
    return CameraIntrinsics.default()


@pytest.fixture
def box_scene():
    """One room, one wall slab, two objects; hand-placed for geometry tests."""
    bounds = Box(0.0, 0.0, 0.0, 8.0, 8.0, 3.0)
    walls = (
        Box(0.0, 0.0, 0.0, 8.0, 0.1, 3.0),
        Box(0.0, 7.9, 0.0, 8.0, 8.0, 3.0),
        Box(0.0, 0.0, 0.0, 0.1, 8.0, 3.0),
        Box(7.9, 0.0, 0.0, 8.0, 8.0, 3.0),
    )
    objects = (
        ObjectInstance(0, 1, Box(3.0, 3.5, 0.0, 4.0, 4.5, 1.8)),
        ObjectInstance(1, 5, Box(6.0, 5.0, 0.0, 6.8, 5.2, 1.9)),
    )
    return SceneSpec(bounds=bounds, obstacles=walls, objects=objects, seed=0)


@pytest.fixture
def pose_origin():
    return Pose(x=1.0, y=4.0, yaw=0.0)
