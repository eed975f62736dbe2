from hypothesis import settings

# Every property test runs the same examples on every run and host, and no
# example fails for taking long on a slow or shared machine.
settings.register_profile("reproducible", derandomize=True, deadline=None)
# The same with ten times the default examples, for a deeper run:
#   python -m pytest tests/test_properties.py --hypothesis-profile=ci
settings.register_profile("ci", parent=settings.get_profile("reproducible"),
                          max_examples=1000)
settings.load_profile("reproducible")
