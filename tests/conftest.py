from hypothesis import settings

# property tests replay the same examples on every run, so tier-1 results
# are reproducible; no example database is written
settings.register_profile("polysieve", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("polysieve")
