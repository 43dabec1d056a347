"""A recovery scheme that crashes on every case, loaded as a scheme plugin."""

from repro.schemes import RecoveryScheme, SchemeInstance, register_scheme


class _Crasher:
    def recover(self, initiator, destination, trigger_neighbor):
        raise RuntimeError(f"synthetic crash at {initiator} -> {destination}")


@register_scheme
class CrashScheme(RecoveryScheme):
    """Registered under ``Crash``; every recovery raises."""

    name = "Crash"

    def _instantiate(self, scenario) -> SchemeInstance:
        return SchemeInstance(self.name, _Crasher())
