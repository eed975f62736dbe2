from hypothesis import settings

# Every property test runs the same examples on every run and host, and no
# example fails for taking long on a slow or shared machine.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
