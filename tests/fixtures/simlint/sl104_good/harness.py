"""Use sites naming registered models only."""


def run_model(trace, model):
    return model


def smoke():
    return run_model([], "base")
