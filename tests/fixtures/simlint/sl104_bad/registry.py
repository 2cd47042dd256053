"""SL104 known-bad: a model literal outside the registry."""


class BasePipeline:
    STREAMS = 1


MODELS = {
    "base": BasePipeline,
}
