"""ML-DSA parameter sets (FIPS 204 Table 1) and derived encoding sizes."""

from __future__ import annotations

from dataclasses import dataclass

Q = 8380417  # 2^23 - 2^13 + 1
N = 256
D = 13


@dataclass(frozen=True)
class MlDsaLevel:
    """One ML-DSA parameter set, keyed by its NIST suffix (44, 65, 87)."""

    number: int
    k: int
    l: int
    eta: int
    tau: int
    gamma1: int
    gamma2: int
    omega: int
    ctilde_bytes: int

    @property
    def name(self) -> str:
        return f"ML-DSA-{self.number}"

    @property
    def beta(self) -> int:
        return self.tau * self.eta

    @property
    def eta_bits(self) -> int:
        # coefficients in [-eta, eta] packed as eta - c
        return 3 if self.eta == 2 else 4

    @property
    def z_bits(self) -> int:
        # coefficients in (-gamma1, gamma1] packed as gamma1 - c
        return (self.gamma1 - 1).bit_length() + 1

    @property
    def w1_bits(self) -> int:
        # w1 in [0, (q-1)/(2*gamma2) - 1]
        return (((Q - 1) // (2 * self.gamma2)) - 1).bit_length()

    @property
    def pk_len(self) -> int:
        return 32 + self.k * (N * 10 // 8)

    @property
    def sk_len(self) -> int:
        s_bytes = N * self.eta_bits // 8
        return 128 + (self.k + self.l) * s_bytes + self.k * (N * D // 8)

    @property
    def sig_len(self) -> int:
        return self.ctilde_bytes + self.l * (N * self.z_bits // 8) + self.omega + self.k

    @property
    def category(self) -> int:
        """NIST security category (2/3/5), used as the one-byte level tag in file formats."""
        return {44: 2, 65: 3, 87: 5}[self.number]


L44 = MlDsaLevel(44, k=4, l=4, eta=2, tau=39, gamma1=1 << 17,
                 gamma2=(Q - 1) // 88, omega=80, ctilde_bytes=32)
L65 = MlDsaLevel(65, k=6, l=5, eta=4, tau=49, gamma1=1 << 19,
                 gamma2=(Q - 1) // 32, omega=55, ctilde_bytes=48)
L87 = MlDsaLevel(87, k=8, l=7, eta=2, tau=60, gamma1=1 << 19,
                 gamma2=(Q - 1) // 32, omega=75, ctilde_bytes=64)

LEVELS: dict[int, MlDsaLevel] = {44: L44, 65: L65, 87: L87}

LEVEL_BY_CATEGORY: dict[int, MlDsaLevel] = {lv.category: lv for lv in LEVELS.values()}
LEVEL_BY_SK_LEN: dict[int, MlDsaLevel] = {lv.sk_len: lv for lv in LEVELS.values()}
LEVEL_BY_PK_LEN: dict[int, MlDsaLevel] = {lv.pk_len: lv for lv in LEVELS.values()}
