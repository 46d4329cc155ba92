"""IMU sensor substrate.

Models the 6-axis inertial measurement unit inside the earphone:
device profiles with datasheet-style noise specifications
(:mod:`repro.imu.device`), noise generators (:mod:`repro.imu.noise`),
the sampling front-end that turns continuous body vibration into raw
counts (:mod:`repro.imu.sensor`), and the trial recorder used by every
experiment (:mod:`repro.imu.recorder`).
"""

from repro.imu.device import IMUDevice, IDEAL_IMU, MPU6050, MPU9250
from repro.imu.recorder import Recorder
from repro.imu.sensor import IMUSensor

__all__ = [
    "IDEAL_IMU",
    "IMUDevice",
    "IMUSensor",
    "MPU6050",
    "MPU9250",
    "Recorder",
]
