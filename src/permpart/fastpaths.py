"""dispatch_contains, another name for permpart.matchers.partition_contains,
which answers both linear pattern shapes itself.  Nothing in the package
imports this module; it stays only because the layer tracer,
layerbench/tracing.py, does, and can go once the tracer stops."""

from .matchers import partition_contains as dispatch_contains
